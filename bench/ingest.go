package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

const (
	ingestReplicas = 2
	// senders bounds both the sender goroutines and the HTTP
	// connections: all load comes from one process on a 2-core box.
	senders = 2
	// warmupRequests are served before a phase starts timing, so the
	// cost cache holds the light models' columns.
	warmupRequests = 64
)

// ingestSizes are the request counts of one repetition's phases: a
// closed loop (A) and open loops at two fixed rates (B, C).
type ingestSizes struct {
	a, b, c      int
	rateB, rateC float64
}

func ingestSizesFor(short bool) ingestSizes {
	if short {
		return ingestSizes{a: 300, b: 100, c: 200, rateB: 2000, rateC: 5000}
	}
	return ingestSizes{a: 3000, b: 1000, c: 2500, rateB: 2000, rateC: 5000}
}

// wireBodies encodes requests as POST /v1/requests bodies with an
// explicit arrival_cycle and wait:true.
func wireBodies(reqs []serve.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		a := r.ArrivalCycle
		b, err := json.Marshal(serve.SubmitRequest{Request: r, ArrivalCycle: &a, Wait: true})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// front is what heraldd runs by default, served on a loopback listener:
// a bootstrap search on a fresh cost cache, then a cost-aware fleet of
// the best HDA behind fleet.Handler.
type front struct {
	fl     *fleet.Fleet
	srv    *http.Server
	addr   string
	served chan error
}

func startFront() (*front, error) {
	cache := newCache()
	res, err := bootstrap(cache)
	if err != nil {
		return nil, err
	}
	fl, err := fleet.Replicated(cache, res.Best.HDA, ingestReplicas, fleet.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{fl: fl, srv: &http.Server{Handler: fl.Handler()}, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// close stops the listener, drains the fleet, checks conservation and
// returns the final fleet statistics.
func (f *front) close(res *result) fleet.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res.fail(f.srv.Shutdown(ctx))
	if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
		res.fail(err)
	}
	st, err := f.fl.Drain(ctx)
	res.fail(err)
	res.check(st.Submitted == st.Completed+st.Failed && st.Pending == 0,
		"ingest: after drain submitted %d != completed %d + failed %d (pending %d)", st.Submitted, st.Completed, st.Failed, st.Pending)
	return st
}

// reply is the part of a served record the benchmark checks.
type reply struct {
	Status     string `json:"status"`
	BusyCycles int64  `json:"busy_cycles"`
}

// sender is one load-generator connection. It writes each request and
// reads its response on the calling goroutine: net/http's Transport
// hands every request to per-connection read and write goroutines, and
// on two cores those handoffs, not the server, would set the latency.
type sender struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	url  string
}

func (f *front) dial() (*sender, error) {
	c, err := net.Dial("tcp", f.addr)
	if err != nil {
		return nil, err
	}
	return &sender{conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), url: "http://" + f.addr + "/v1/requests"}, nil
}

// post sends one wait:true submission; anything but a 200 with status
// done is an error.
func (s *sender) post(body []byte) (reply, error) {
	var r reply
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	if err := req.Write(s.w); err != nil {
		return r, err
	}
	if err := s.w.Flush(); err != nil {
		return r, err
	}
	resp, err := http.ReadResponse(s.r, req)
	if err != nil {
		return r, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, err
	}
	if r.Status != string(serve.StatusDone) {
		return r, fmt.Errorf("request finished with status %q", r.Status)
	}
	return r, nil
}

// load is one phase's client-side record.
type load struct {
	lat   []float64 // µs from send (closed loop) or due time (open loop); +Inf for a failed request
	late  []float64 // open loop: ms the sender started after the due time
	busy  int64     // simulated busy cycles of the served requests
	fails int64
	err   error // first failure
	wall  time.Duration
}

// drive sends bodies from the senders, one connection each. With rate
// 0 it is a closed loop: each sender waits for its reply before taking
// the next body. With rate > 0 body i is due at start + i/rate, and its
// latency counts from the due time, so a stalled sender shows in every
// request queued behind it.
func (f *front) drive(bodies [][]byte, rate float64, tr *tracer, name string) load {
	n := len(bodies)
	l := load{lat: make([]float64, n)}
	if rate > 0 {
		l.late = make([]float64, n)
	}
	phase := tr.begin(name, -1, -1)
	var next atomic.Int64
	var mu sync.Mutex
	record := func(busy, fails int64, err error) {
		mu.Lock()
		defer mu.Unlock()
		l.busy += busy
		l.fails += fails
		if l.err == nil {
			l.err = err
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd, err := f.dial()
			if err != nil {
				record(0, 0, err)
				return
			}
			defer snd.conn.Close()
			var busy, fails int64
			var first error
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(due))
					l.late[i] = millis(time.Since(due))
				}
				sp := tr.begin(name+".request", phase, i)
				r, err := snd.post(bodies[i])
				tr.end(sp)
				l.lat[i] = micros(time.Since(due))
				if err != nil {
					l.lat[i] = math.Inf(1)
					fails++
					first = cmp.Or(first, err)
					continue
				}
				busy += r.BusyCycles
			}
			record(busy, fails, first)
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	tr.end(phase)
	return l
}

// ingestHTTP is the ingest-http workload: phase A is a closed loop,
// phases B and C open loops at fixed rates. A gives capacity, latency
// and live heap; B and C give latency at a fixed offered load. Each
// phase repeats on its share of the budget, every repetition on a
// fresh front whose set-up is timed, and its samples pool across
// repetitions: one repetition's fleet and goroutine placement would
// otherwise decide the numbers.
func ingestHTTP(p params, res *result) {
	sz := ingestSizesFor(p.short)
	var setupS, mem, util, rps []float64
	lat := make([][]float64, 3)
	// The process's first phase warms its heap and threads; it is not
	// measured.
	if err := warmProcess(p, res); err != nil {
		res.fail(err)
		return
	}
	for i, ph := range []struct {
		name  string
		n     int
		rate  float64
		share float64
	}{{"A", sz.a, 0, 0.6}, {"B", sz.b, sz.rateB, 0.2}, {"C", sz.c, sz.rateC, 0.2}} {
		bodies, err := wireBodies(ingestSequence(p.seed, int64(i), warmupRequests+ph.n))
		if err != nil {
			res.fail(err)
			return
		}
		err = repeat(p.seconds*ph.share, func() error {
			var f *front
			s, err := setups(1, func() error {
				var err error
				if f, err = startFront(); err != nil {
					return err
				}
				w := f.drive(bodies[:warmupRequests], 0, nil, "warmup")
				res.attempted += warmupRequests
				res.failed += w.fails
				return w.err
			})
			setupS = append(setupS, s...)
			if err != nil {
				return err
			}
			l := f.drive(bodies[warmupRequests:], ph.rate, p.tr, "ingest.phase"+ph.name)
			res.attempted += int64(ph.n)
			res.failed += l.fails
			res.units += float64(ph.n)
			if i == 0 {
				mem = append(mem, liveHeapMB())
			}
			st := f.close(res)
			if l.err != nil {
				return fmt.Errorf("ingest phase %s: %d of %d requests failed, first: %w", ph.name, l.fails, ph.n, l.err)
			}
			lat[i] = append(lat[i], l.lat...)
			if i == 0 {
				rps = append(rps, float64(ph.n)/l.wall.Seconds())
				subs := len(f.fl.ActiveHDAs()[0].Subs)
				util = append(util, float64(l.busy)/float64(int64(ingestReplicas*subs)*st.MakespanCycles))
			}
			return nil
		})
		if err != nil {
			res.fail(err)
			return
		}
	}
	p50, p90, p99 := percentile(lat[0], 50), percentile(lat[0], 90), percentile(lat[0], 99)
	res.add("setup_s", "s", median(setupS))
	res.add("http_rps", "req/s", median(rps))
	res.add("http_p50_us", "us", p50)
	res.add("http_p90_us", "us", p90)
	res.add("http_p99_us", "us", p99)
	res.add("http_open_p90_ms.r2000", "ms", percentile(lat[1], 90)/1000)
	res.add("http_open_p90_ms.r5000", "ms", percentile(lat[2], 90)/1000)
	res.add("mem_live_mb", "MB", median(mem))
	res.add("sim_utilization", "ratio", median(util))
	res.add("error_rate", "ratio", float64(res.failed)/float64(max(res.attempted, 1)))
	res.add("throughput_per_s", "1/s", median(rps))
	res.add("latency_p50_ms", "ms", p50/1000)
	res.add("latency_tail_ms", "ms", p90/1000)
}

// warmProcess serves one untimed phase A on a front of its own.
func warmProcess(p params, res *result) error {
	if p.short {
		return nil
	}
	bodies, err := wireBodies(ingestSequence(p.seed, 3, warmupRequests+ingestSizesFor(false).a))
	if err != nil {
		return err
	}
	f, err := startFront()
	if err != nil {
		return err
	}
	l := f.drive(bodies, 0, nil, "warmup")
	f.close(res)
	res.attempted += int64(len(bodies))
	res.failed += l.fails
	return l.err
}
