package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The per-layer ladder pushes one seeded request sequence through
// progressively deeper public entry points — cost model, scheduler,
// engine, fleet, HTTP handler, socket — timing every call as a span. A
// layer's self time is the median per-request time of its rung minus
// the rung below it.

type ladderSizes struct {
	reqs   int // ingest-sequence requests per rung
	fused  int // fused-sequence requests
	waits  int // one-at-a-time requests of the wait rungs
	open   int // open-loop requests for sender lateness
	rounds int // repetitions of the loop rungs; their median is reported
}

func ladderSizesFor(short bool) ladderSizes {
	if short {
		return ladderSizes{reqs: 48, fused: 8, waits: 16, open: 40, rounds: 2}
	}
	return ladderSizes{reqs: 2000, fused: 200, waits: 500, open: 1000, rounds: 5}
}

// rungs carries the ladder's shared inputs.
type rungs struct {
	p     params
	res   *result
	tr    *tracer
	sz    ladderSizes
	cache *maestro.Cache
	boot  *dse.Result // the bootstrap search; boot.Best.HDA serves the light sequence
	even  *accel.HDA
	reqs  []serve.Request
}

func ladder(p params, res *result) {
	l := &rungs{p: p, res: res, tr: p.tr, sz: ladderSizesFor(p.short), cache: newCache()}
	l.reqs = ingestSequence(p.seed, 100, l.sz.reqs)
	var err error
	if l.boot, err = bootstrap(l.cache); err != nil {
		res.fail(err)
		return
	}
	if l.even, err = evenEdge(); err != nil {
		res.fail(err)
		return
	}
	for _, rung := range []func() error{l.maestro, l.sched, l.dse, l.serve, l.fleet, l.http, l.replay} {
		res.fail(rung())
	}
}

// perCall times rounds passes of fn, one span each, and returns the
// median pass time divided by calls, in ns.
func (l *rungs) perCall(name string, calls int, fn func() error) (float64, error) {
	var per []float64
	for r := 0; r < l.sz.rounds; r++ {
		d, err := l.tr.call(name, -1, -1, fn)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d)/float64(calls))
	}
	return median(per), nil
}

// each times fn once per request, one span each, and returns the
// median in µs.
func (l *rungs) each(name string, n int, fn func(i int) error) (float64, error) {
	for i := 0; i < n; i++ {
		if _, err := l.tr.call(name, -1, i, func() error { return fn(i) }); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(l.tr.durations(name)) / 1e3, nil
}

func zoo(names []string) ([]*dnn.Model, error) {
	out := make([]*dnn.Model, len(names))
	for i, n := range names {
		m, err := dnn.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (l *rungs) maestro() error {
	ms, err := zoo(lightModels)
	if err != nil {
		return err
	}
	type pair struct {
		layer *dnn.Layer
		style dataflow.Style
		hw    maestro.HW
	}
	var pairs []pair
	subs := l.boot.Best.HDA.Subs
	for _, m := range ms {
		for i := range m.Layers {
			for _, s := range subs {
				pairs = append(pairs, pair{&m.Layers[i], s.Style, s.HW})
			}
		}
	}
	et := energy.Default28nm()
	est, err := l.perCall("maestro.Estimate", len(pairs), func() error {
		for _, q := range pairs {
			maestro.Estimate(q.layer, q.style, q.hw, et)
		}
		return nil
	})
	if err != nil {
		return err
	}
	warm := newCache()
	lookup := func() error {
		for _, q := range pairs {
			warm.EstimateRef(q.layer, q.style, q.hw)
		}
		return nil
	}
	if err := lookup(); err != nil { // fills the cache
		return err
	}
	look, err := l.perCall("maestro.EstimateRef", len(pairs), lookup)
	if err != nil {
		return err
	}
	col, err := l.perCall("maestro.CostColumn", len(ms)*len(subs), func() error {
		cold := newCache()
		for _, m := range ms {
			for _, s := range subs {
				cold.CostColumn(m, s.Style, s.HW)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	grid := newCache()
	var edps []float64
	cold, err := l.tr.call("maestro.grid.cold", -1, -1, func() error {
		var err error
		_, edps, err = coldGrid(grid, nil)
		return err
	})
	if err != nil {
		return err
	}
	warmGrid, err := l.tr.call("maestro.grid.warm", -1, -1, func() error {
		_, _, err := coldGrid(grid, nil)
		return err
	})
	if err != nil {
		return err
	}
	l.res.add("maestro.estimate_ns", "ns", est)
	l.res.add("maestro.lookup_ns", "ns", look)
	l.res.add("maestro.column_us", "us", col/1e3)
	l.res.add("maestro.fill_ms", "ms", millis(cold-warmGrid))
	l.res.add("maestro.cost_entries", "count", float64(grid.Len()))
	l.res.add("maestro.mapping_entries", "count", float64(grid.MappingLen()))
	l.res.add("sim.best_edp_geomean", "J.s", geomean(edps))
	return nil
}

// batch is the engine's scheduling-round size: Extend admits at most 8
// requests at a time.
const batch = 8

func (l *rungs) sched() error {
	so := sched.DefaultOptions()
	so.PostProcess = false // as the serving engine runs it
	s, err := sched.New(l.cache, so)
	if err != nil {
		return err
	}
	// The light sequence, in batches of 8.
	var light [][]sched.Admission
	for b := 0; b < len(l.reqs); b += batch {
		var adms []sched.Admission
		for i := b; i < min(b+batch, len(l.reqs)); i++ {
			m, err := dnn.ByName(l.reqs[i].Model)
			if err != nil {
				return err
			}
			adms = append(adms, sched.Admission{Instance: workload.Instance{Model: m, Batch: i + 1, ArrivalCycle: l.reqs[i].ArrivalCycle}})
		}
		light = append(light, adms)
	}
	var allocs, retained float64
	for r := 0; r < l.sz.rounds; r++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		inc, err := s.Incremental(l.boot.Best.HDA, "ladder-light")
		if err != nil {
			return err
		}
		if err := l.extend(inc, "sched.Extend.light", light); err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if r == 0 {
			allocs = float64(after.Mallocs-before.Mallocs) / float64(len(l.reqs))
			retained = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024 / float64(len(l.reqs))
		}
		runtime.KeepAlive(inc)
	}

	// The fused sequence: each request is its plan's segment chain, every
	// segment an After successor of the one before.
	plans, err := fusionPlans(l.cache, l.even)
	if err != nil {
		return err
	}
	ents, err := fusedTrace(l.p.seed, l.sz.fused)
	if err != nil {
		return err
	}
	var fused [][]sched.Admission
	var perReq []int // requests per fused batch
	n := 0
	for b := 0; b < len(ents); b += batch {
		var adms []sched.Admission
		for i := b; i < min(b+batch, len(ents)); i++ {
			m, err := dnn.ByName(ents[i].Model)
			if err != nil {
				return err
			}
			segs := []*dnn.Model{m}
			if pl, ok := plans[m.Name]; ok {
				if segs, err = pl.Slices(m); err != nil {
					return err
				}
			}
			for k, sm := range segs {
				a := sched.Admission{Instance: workload.Instance{Model: sm, Batch: i + 1, ArrivalCycle: ents[i].ArrivalCycle}}
				if k > 0 {
					a.After = n // 1 + the global index of the previous segment
				}
				adms = append(adms, a)
				n++
			}
		}
		fused = append(fused, adms)
		perReq = append(perReq, min(b+batch, len(ents))-b)
	}
	for r := 0; r < l.sz.rounds; r++ {
		inc, err := s.Incremental(l.even, "ladder-fused")
		if err != nil {
			return err
		}
		if err := l.extend(inc, "sched.Extend.fused", fused); err != nil {
			return err
		}
	}
	fusedUS := perRequest(l.tr.durations("sched.Extend.fused"), perReq)

	// Batch scheduling of AR/VR-A on every bootstrap design point.
	full, err := sched.New(l.cache, sched.DefaultOptions())
	if err != nil {
		return err
	}
	w := workload.ARVRA()
	schedUS, err := l.each("sched.Schedule", len(l.boot.Points), func(i int) error {
		sch, err := full.Schedule(l.boot.Points[i].HDA, w)
		if err != nil {
			return err
		}
		return sch.Validate()
	})
	if err != nil {
		return err
	}
	var lightReq []int
	for _, b := range light {
		lightReq = append(lightReq, len(b))
	}
	l.res.add("sched.extend_us_per_req.light", "us", perRequest(l.tr.durations("sched.Extend.light"), lightReq))
	l.res.add("sched.extend_us_per_req.fused", "us", fusedUS)
	l.res.add("sched.extend_allocs_per_req", "count", allocs)
	l.res.add("sched.retained_kb_per_req", "KB", retained)
	l.res.add("sched.schedule_us", "us", schedUS)
	return nil
}

// perRequest divides each batch span (ns) by its request count and
// returns the median in µs. reqs cycles when spans cover several
// rounds of the same batches.
func perRequest(spans []float64, reqs []int) float64 {
	per := make([]float64, len(spans))
	for i, d := range spans {
		per[i] = d / float64(reqs[i%len(reqs)]) / 1e3
	}
	return median(per)
}

// extend admits every batch, one span each, then validates the
// committed schedule.
func (l *rungs) extend(inc *sched.Incremental, name string, batches [][]sched.Admission) error {
	for i, adms := range batches {
		if _, err := l.tr.call(name, -1, i, func() error {
			_, err := inc.Extend(adms)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if err := inc.Snapshot().Validate(); err != nil {
		return fmt.Errorf("%s: committed schedule is illegal: %w", name, err)
	}
	return nil
}

func (l *rungs) dse() error {
	mix := observedMix()
	sw, err := resweeper(l.cache, true)
	if err != nil {
		return err
	}
	var r *dse.Result
	sweep := func() error {
		var err error
		r, err = sw.Sweep(mix)
		return err
	}
	if err := sweep(); err != nil {
		return err
	}
	ms, err := l.perCall("dse.Sweep.warm", 1, sweep)
	if err != nil {
		return err
	}
	models, err := zoo(fusedModels)
	if err != nil {
		return err
	}
	plan, err := l.perCall("dse.PlanSegments", len(models), func() error {
		for _, m := range models {
			if _, err := dse.PlanSegments(l.cache, l.even, m, dse.ObjectiveEDP, fusedMaxSegs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.res.add("dse.sweep_ms_warm", "ms", ms/1e6)
	l.res.add("dse.explored", "count", float64(r.Explored))
	l.res.add("dse.pruned", "count", float64(r.Pruned))
	l.res.add("dse.prune_ratio", "ratio", float64(r.Pruned)/float64(r.Explored+r.Pruned))
	l.res.add("dse.plan_segments_us", "us", plan/1e3)
	return nil
}

// awaitServed waits for every ticket (engine or fleet) and checks that
// each request was served.
func awaitServed[T interface {
	Wait(context.Context) (serve.Record, error)
}](tickets []T) error {
	for _, t := range tickets {
		rec, err := t.Wait(context.Background())
		if err != nil {
			return err
		}
		if rec.Status != serve.StatusDone {
			return fmt.Errorf("request %d finished %s: %s", rec.ID, rec.Status, rec.Err)
		}
	}
	return nil
}

func (l *rungs) serve() error {
	eng, err := serve.New(l.cache, l.boot.Best.HDA, serve.DefaultOptions())
	if err != nil {
		return err
	}
	tickets := make([]*serve.Ticket, len(l.reqs))
	submit, err := l.each("serve.Submit", len(l.reqs), func(i int) error {
		var err error
		tickets[i], err = eng.Submit(l.reqs[i])
		return err
	})
	if err != nil {
		return err
	}
	if err := awaitServed(tickets); err != nil {
		return err
	}
	if err := l.drainEngine(eng); err != nil {
		return err
	}

	eng, err = serve.New(l.cache, l.boot.Best.HDA, serve.DefaultOptions())
	if err != nil {
		return err
	}
	wait, err := l.each("serve.wait", l.sz.waits, func(i int) error {
		t, err := eng.Submit(l.reqs[i])
		if err != nil {
			return err
		}
		<-t.Done()
		return nil
	})
	if err != nil {
		return err
	}
	if err := l.drainEngine(eng); err != nil {
		return err
	}

	// Reassign toggles an engine with committed light work between the
	// even split and a skewed one.
	eng, err = serve.New(l.cache, l.even, serve.DefaultOptions())
	if err != nil {
		return err
	}
	for _, r := range l.reqs[:min(200, len(l.reqs))] {
		t, err := eng.Submit(r)
		if err != nil {
			return err
		}
		<-t.Done()
	}
	parts := [][]accel.Partition{
		{{Style: dataflow.NVDLA, PEs: 768, BWGBps: 12}, {Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 4}},
		{{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8}, {Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8}},
	}
	reassign, err := l.each("serve.Reassign", 10*l.sz.rounds, func(i int) error { return eng.Reassign(parts[i%2]) })
	if err != nil {
		return err
	}
	if err := l.drainEngine(eng); err != nil {
		return err
	}
	extend, _ := l.res.value("sched.extend_us_per_req.light")
	l.res.add("serve.submit_us", "us", submit)
	l.res.add("serve.wait_us", "us", wait)
	l.res.add("serve.handoff_us", "us", wait-extend)
	l.res.add("serve.reassign_us", "us", reassign)
	return nil
}

func (l *rungs) drainEngine(eng *serve.Engine) error {
	st, err := eng.Drain(context.Background())
	if err != nil {
		return err
	}
	if st.Submitted != st.Completed+st.Failed || st.Pending != 0 || st.Failed != 0 {
		return fmt.Errorf("serve: after drain submitted %d, completed %d, failed %d, pending %d", st.Submitted, st.Completed, st.Failed, st.Pending)
	}
	return nil
}

func (l *rungs) drainFleet(fl *fleet.Fleet) (fleet.Stats, error) {
	st, err := fl.Drain(context.Background())
	if err != nil {
		return st, err
	}
	if st.Submitted != st.Completed+st.Failed || st.Pending != 0 || st.Failed != 0 {
		return st, fmt.Errorf("fleet: after drain submitted %d, completed %d, failed %d, pending %d", st.Submitted, st.Completed, st.Failed, st.Pending)
	}
	return st, nil
}

func (l *rungs) newFleet() (*fleet.Fleet, error) {
	return fleet.Replicated(l.cache, l.boot.Best.HDA, ingestReplicas, fleet.DefaultOptions())
}

func (l *rungs) fleet() error {
	fl, err := l.newFleet()
	if err != nil {
		return err
	}
	tickets := make([]*fleet.Ticket, len(l.reqs))
	submit, err := l.each("fleet.Submit", len(l.reqs), func(i int) error {
		var err error
		tickets[i], err = fl.Submit(l.reqs[i])
		return err
	})
	if err != nil {
		return err
	}
	if err := awaitServed(tickets); err != nil {
		return err
	}
	stats, err := l.each("fleet.Stats", 10*l.sz.rounds, func(int) error { fl.Stats(); return nil })
	if err != nil {
		return err
	}
	st, err := l.drainFleet(fl)
	if err != nil {
		return err
	}
	lo, hi := st.PerReplica[0].Dispatched, st.PerReplica[0].Dispatched
	for _, r := range st.PerReplica {
		lo, hi = min(lo, r.Dispatched), max(hi, r.Dispatched)
	}

	if fl, err = l.newFleet(); err != nil {
		return err
	}
	wait, err := l.each("fleet.wait", l.sz.waits, func(i int) error {
		t, err := fl.Submit(l.reqs[i])
		if err != nil {
			return err
		}
		<-t.Done()
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := l.drainFleet(fl); err != nil {
		return err
	}

	elastic, err := l.controllerSteps("elastic")
	if err != nil {
		return err
	}
	migrate, err := l.controllerSteps("migration")
	if err != nil {
		return err
	}
	serveSubmit, _ := l.res.value("serve.submit_us")
	l.res.add("fleet.submit_us", "us", submit)
	l.res.add("fleet.dispatch_us", "us", submit-serveSubmit)
	l.res.add("fleet.wait_us", "us", wait)
	l.res.add("fleet.stats_us", "us", stats)
	l.res.add("fleet.replica_skew", "ratio", float64(hi)/float64(max(lo, 1)))
	l.res.add("fleet.elastic_step_ms", "ms", elastic)
	l.res.add("fleet.migrate_step_ms", "ms", migrate)
	return nil
}

// controllerSteps feeds the flipflop trace to a standalone shoot-out
// fleet and steps the controller at every window boundary, returning
// the median step in ms.
func (l *rungs) controllerSteps(control string) (float64, error) {
	ents, err := scenario.Generate(mixedSpecs(l.p.seed, l.p.short)[2])
	if err != nil {
		return 0, err
	}
	fo, err := shootoutFleet(l.cache)
	if err != nil {
		return 0, err
	}
	fo.Serve.Elastic = control == "elastic"
	fl, err := fleet.New(l.cache, []*accel.HDA{l.even, l.even, l.even}, fo)
	if err != nil {
		return 0, err
	}
	var step func(context.Context) error
	if control == "elastic" {
		c, err := fleet.NewElasticController(fl, fleet.ElasticOptions{PEQuantum: 256})
		if err != nil {
			return 0, err
		}
		step = func(ctx context.Context) error { _, err := c.Step(ctx); return err }
	} else {
		c, err := fleet.NewController(fl, fleet.ControllerOptions{})
		if err != nil {
			return 0, err
		}
		step = func(ctx context.Context) error { _, err := c.Step(ctx); return err }
	}
	name := "fleet.step." + control
	var window []*fleet.Ticket
	for i, e := range ents {
		t, err := fl.Submit(request(e))
		if err != nil {
			return 0, err
		}
		window = append(window, t)
		if (i+1)%replayWindow != 0 {
			continue
		}
		for _, t := range window {
			<-t.Done()
		}
		window = window[:0]
		if _, err := l.tr.call(name, -1, i, func() error { return step(context.Background()) }); err != nil {
			return 0, err
		}
	}
	if _, err := l.drainFleet(fl); err != nil {
		return 0, err
	}
	return median(l.tr.durations(name)) / 1e6, nil
}

func (l *rungs) http() error {
	bodies, err := wireBodies(l.reqs)
	if err != nil {
		return err
	}
	fl, err := l.newFleet()
	if err != nil {
		return err
	}
	h := fl.Handler()
	var respBytes int
	handler, err := l.each("http.ServeHTTP", len(bodies), func(i int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(bodies[i])))
		var r reply
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil || rec.Code != http.StatusOK || r.Status != string(serve.StatusDone) {
			return fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		respBytes += rec.Body.Len()
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := l.drainFleet(fl); err != nil {
		return err
	}

	closed, err := l.socket(bodies, 0, "http.closed")
	if err != nil {
		return err
	}
	open, err := l.socket(bodies[:min(l.sz.open, len(bodies))], 2000, "http.open")
	if err != nil {
		return err
	}
	fleetWait, _ := l.res.value("fleet.wait_us")
	l.res.add("http.handler_us", "us", handler)
	l.res.add("http.codec_us", "us", handler-fleetWait)
	l.res.add("http.transport_us", "us", percentile(closed.lat, 50)-handler)
	l.res.add("http.resp_bytes", "B", float64(respBytes)/float64(len(bodies)))
	l.res.add("http.gen_late_ms.p50", "ms", percentile(open.late, 50))
	l.res.add("http.gen_late_ms.p99", "ms", percentile(open.late, 99))
	return nil
}

// socket runs bodies through a fresh loopback front after warming it,
// as the ingest-http phases do.
func (l *rungs) socket(bodies [][]byte, rate float64, name string) (load, error) {
	f, err := startFront()
	if err != nil {
		return load{}, err
	}
	warm, err := wireBodies(ingestSequence(l.p.seed, 101, warmupRequests))
	if err != nil {
		return load{}, err
	}
	w := f.drive(warm, 0, nil, "warmup")
	ld := f.drive(bodies, rate, l.tr, name)
	var res result
	f.close(&res)
	for _, e := range []error{w.err, ld.err} {
		if e != nil {
			return ld, fmt.Errorf("%s: %w", name, e)
		}
	}
	if len(res.problems) > 0 {
		return ld, fmt.Errorf("%s: %s", name, res.problems[0])
	}
	return ld, nil
}

func (l *rungs) replay() error {
	specs := mixedSpecs(l.p.seed, l.p.short)
	traces := make([][]capture.Entry, len(specs))
	entries := 0
	gen, err := l.perCall("scenario.Generate", 1, func() error {
		entries = 0
		for i, sp := range specs {
			var err error
			if traces[i], err = scenario.Generate(sp); err != nil {
				return err
			}
			entries += len(traces[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	bufs := make([]bytes.Buffer, len(specs))
	enc, err := l.perCall("capture.Write", entries, func() error {
		for i, sp := range specs {
			bufs[i].Reset()
			if err := capture.Write(&bufs[i], sp.Note(), traces[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	read := make([]*capture.Trace, len(specs))
	dec, err := l.perCall("capture.Read", entries, func() error {
		for i := range specs {
			var err error
			if read[i], err = capture.Read(bytes.NewReader(bufs[i].Bytes())); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// One replay of every replay-mixed arm gives the simulated metrics;
	// the zipf arm is the timed rung.
	hdas := []*accel.HDA{l.even, l.even, l.even}
	arms := []arm{{"zipf", read[0], ""}, {"correlated", read[1], ""}, {"flipflop/elastic", read[2], "elastic"}, {"flipflop/migration", read[2], "migration"}}
	var steady, makespan int64
	for _, a := range arms {
		o, err := a.options(l.cache)
		if err != nil {
			return err
		}
		d, _, err := replayOnce(l.cache, hdas, a.trace, o)
		if err != nil {
			return err
		}
		steady = max(steady, steadyP99(d))
		makespan += d.Counters.MakespanCycles
	}
	zipf := read[0]
	var golden []byte
	var last *replay.Digest
	run, err := l.perCall("replay.Run", 1, func() error {
		o, err := arms[0].options(l.cache)
		if err != nil {
			return err
		}
		d, b, err := replayOnce(l.cache, hdas, zipf, o)
		if err != nil {
			return err
		}
		if golden == nil {
			golden = b
		} else if !bytes.Equal(b, golden) {
			return fmt.Errorf("replay: zipf digest differs between repetitions")
		}
		last = d
		return nil
	})
	if err != nil {
		return err
	}
	// The unwindowed rung: the same trace submitted to a live fleet of
	// the same configuration, awaited and drained.
	unwindowed, err := l.perCall("fleet.unwindowed", len(zipf.Entries), func() error {
		fo, err := shootoutFleet(l.cache)
		if err != nil {
			return err
		}
		fl, err := fleet.New(l.cache, hdas, fo)
		if err != nil {
			return err
		}
		tickets := make([]*fleet.Ticket, 0, len(zipf.Entries))
		for _, e := range zipf.Entries {
			t, err := fl.Submit(request(e))
			if err != nil {
				return err
			}
			tickets = append(tickets, t)
		}
		for _, t := range tickets {
			<-t.Done()
		}
		_, err = l.drainFleet(fl)
		return err
	})
	if err != nil {
		return err
	}
	var canon []byte
	digest, err := l.perCall("replay.digest", 1, func() error {
		var err error
		if canon, err = last.Canonical(); err != nil {
			return err
		}
		_, err = last.Hash()
		return err
	})
	if err != nil {
		return err
	}
	l.res.add("scenario.generate_us_per_entry", "us", gen/float64(entries)/1e3)
	l.res.add("capture.encode_us_per_entry", "us", enc/1e3)
	l.res.add("capture.decode_us_per_entry", "us", dec/1e3)
	l.res.add("replay.run_ms", "ms", run/1e6)
	l.res.add("replay.window_us_per_req", "us", (run/float64(len(zipf.Entries))-unwindowed)/1e3)
	l.res.add("replay.digest_us", "us", digest/1e3)
	l.res.add("replay.digest_bytes", "B", float64(len(canon)))
	l.res.add("sim.steady_p99_cycles", "cycles", float64(steady))
	l.res.add("sim.makespan_cycles", "cycles", float64(makespan))
	return nil
}
