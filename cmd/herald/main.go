// Command herald runs the Herald co-design space exploration for one
// workload and accelerator class, printing the optimized HDA
// partitioning, the Pareto front of the explored cloud, and the
// expected latency/energy — the tool's design-time mode (Fig. 10). Use
// -schedule-only with an explicit -partition to run the compile-time
// mode on a fixed HDA.
//
// Examples:
//
//	go run ./cmd/herald -workload arvr-a -class edge
//	go run ./cmd/herald -workload mlperf -class cloud -styles nvdla,shi-diannao,eyeriss
//	go run ./cmd/herald -workload arvr-b -class mobile \
//	    -schedule-only -partition "nvdla:1024:32,shi-diannao:3072:32"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	herald "repro"
	"repro/internal/config"
)

func main() {
	workloadName := flag.String("workload", "arvr-a", "workload: arvr-a, arvr-b, mlperf, mlperf8, or <model>:<batches>")
	className := flag.String("class", "edge", "accelerator class: edge, mobile, cloud")
	stylesFlag := flag.String("styles", "nvdla,shi-diannao", "comma-separated sub-accelerator dataflow styles")
	peUnits := flag.Int("pe-units", 16, "PE partitioning granularity (units)")
	bwUnits := flag.Int("bw-units", 8, "bandwidth partitioning granularity (units)")
	strategyFlag := flag.String("strategy", "exhaustive", "search strategy: exhaustive, binary, random")
	scheduleOnly := flag.Bool("schedule-only", false, "skip DSE; schedule on the -partition HDA")
	partitionFlag := flag.String("partition", "", "fixed partition for -schedule-only: style:pes:bw,style:pes:bw,...")
	configPath := flag.String("config", "", "JSON scenario file (overrides -workload/-class/-partition)")
	ganttFlag := flag.Bool("gantt", false, "render the schedule as a text Gantt chart")
	csvOut := flag.String("csv-out", "", "write the schedule's assignments as CSV to this file")
	jsonOut := flag.String("json-out", "", "write the schedule as JSON to this file")
	flag.Parse()

	var w *herald.Workload
	var class herald.Class
	var fixedHDA *herald.HDA
	var err error

	if *configPath != "" {
		doc, err := config.Load(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		if w, err = doc.BuildWorkload(); err != nil {
			log.Fatal(err)
		}
		if class, err = doc.BuildClass(); err != nil {
			log.Fatal(err)
		}
		if len(doc.Partitions) > 0 {
			if fixedHDA, err = doc.BuildHDA("config"); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		if w, err = config.ParseWorkload(*workloadName); err != nil {
			log.Fatal(err)
		}
		if class, err = herald.ParseClass(*className); err != nil {
			log.Fatal(err)
		}
		if *scheduleOnly {
			if *partitionFlag == "" {
				log.Fatal("-schedule-only requires -partition (or -config)")
			}
			parts, err := config.ParsePartition(*partitionFlag)
			if err != nil {
				log.Fatal(err)
			}
			if fixedHDA, err = herald.NewHDA("cli", class, parts); err != nil {
				log.Fatal(err)
			}
		}
	}
	h := herald.NewFramework()

	if fixedHDA != nil {
		sch, err := h.Compile(fixedHDA, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("HDA:        %v\n", fixedHDA)
		fmt.Printf("workload:   %s (%d layers)\n", w.Name, w.TotalLayers())
		fmt.Printf("latency:    %.4f s\n", sch.LatencySeconds(1.0))
		fmt.Printf("energy:     %.1f mJ\n", sch.EnergyMJ())
		fmt.Printf("EDP:        %.4g J*s\n", sch.EDP(1.0))
		for i, u := range sch.Utilization() {
			fmt.Printf("sub-acc %d:  %s, busy %.1f%%\n", i+1, fixedHDA.Subs[i].Name, 100*u)
		}
		fmt.Printf("sched time: %v\n", sch.SchedulingTime)
		exportSchedule(sch, *ganttFlag, *csvOut, *jsonOut)
		return
	}

	styles, err := config.ParseStyles(*stylesFlag)
	if err != nil {
		log.Fatal(err)
	}
	strategy, err := config.ParseStrategy(*strategyFlag)
	if err != nil {
		log.Fatal(err)
	}

	design, err := h.CoDesign(class, styles, w, *peUnits, *bwUnits, strategy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload:      %s (%d layers, %.1f GMACs)\n",
		w.Name, w.TotalLayers(), float64(w.TotalMACs())/1e9)
	fmt.Printf("class:         %s (%d PEs, %g GB/s, %d MiB)\n",
		class.Name, class.PEs, class.BWGBps, class.GlobalBufBytes>>20)
	fmt.Printf("explored:      %d design points\n", design.Explored)
	fmt.Printf("optimized HDA: %v\n", design.HDA)
	fmt.Printf("latency:       %.4f s\n", design.LatencySec)
	fmt.Printf("energy:        %.1f mJ\n", design.EnergyMJ)
	fmt.Printf("EDP:           %.4g J*s\n", design.EDP)
	fmt.Println("Pareto front (latency s, energy mJ, partition):")
	for _, p := range design.Pareto {
		fmt.Printf("  %.4f  %8.1f  %v\n", p.LatencySec, p.EnergyMJ, p.HDA)
	}
	exportSchedule(design.Schedule, *ganttFlag, *csvOut, *jsonOut)
}

// exportSchedule handles the -gantt/-csv-out/-json-out outputs.
func exportSchedule(sch *herald.Schedule, gantt bool, csvPath, jsonPath string) {
	if gantt {
		fmt.Println()
		fmt.Print(herald.Gantt(sch, 100))
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := herald.WriteScheduleCSV(f, sch); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := herald.WriteScheduleJSON(f, sch); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}
