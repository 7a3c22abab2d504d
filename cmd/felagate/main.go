// Command felagate is Fela's serving gateway: an HTTP/JSON front end
// over N jobs.Manager shards, each shard a multi-tenant elastic pool of
// felaworker -pool processes. Clients submit training jobs with curl
// instead of the binary wire protocol; the gateway meters them with
// per-tenant token buckets and quotas, sheds overload at the edge with
// 429 + Retry-After, and routes admitted jobs across shards by
// consistent-hash tenant affinity with a least-loaded spill.
//
//	felagate -addr 127.0.0.1:8080 -pool-addr 127.0.0.1:7070 -shards 2
//	felaworker -pool -addr 127.0.0.1:7070    (… a few of these)
//	curl -XPOST localhost:8080/v1/jobs -H 'X-Fela-Tenant: alice' \
//	     -d '{"name": "mine", "iterations": 20}'
//
// Pool workers register on -pool-addr and are dealt round-robin across
// the shards. SIGINT/SIGTERM drains gracefully: submissions shed with
// 503 while in-flight jobs run to completion (bounded by
// -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fela/internal/gate"
	"fela/internal/jobs"
	"fela/internal/obs"
	"fela/internal/transport"
)

// gateOpts bundles every flag so tests can drive run directly.
type gateOpts struct {
	addr     string
	poolAddr string
	shards   int

	alloc     string
	admission string

	tenantRate  float64
	tenantBurst int
	tenantQuota int
	queueBound  int

	statusAddr   string
	drainTimeout time.Duration
}

func main() {
	var o gateOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP address to serve the gateway API on")
	flag.StringVar(&o.poolAddr, "pool-addr", "127.0.0.1:7070", "TCP address pool workers register on")
	flag.IntVar(&o.shards, "shards", 2, "number of job-manager shards behind the gateway")
	flag.StringVar(&o.alloc, "alloc", "fair-share",
		"per-shard worker allocation policy (fair-share, priority, throughput-max, oasis)")
	flag.StringVar(&o.admission, "admission", "",
		"per-shard online admission policy (none, oasis; empty = admit everything)")
	flag.Float64Var(&o.tenantRate, "tenant-rate", 0,
		"per-tenant submit budget in submissions/sec (0 = unlimited)")
	flag.IntVar(&o.tenantBurst, "tenant-burst", 0,
		"per-tenant submit burst (0 = ceil of -tenant-rate)")
	flag.IntVar(&o.tenantQuota, "tenant-quota", 0,
		"per-tenant cap on in-flight jobs (0 = unlimited)")
	flag.IntVar(&o.queueBound, "queue-bound", 0,
		"per-shard cap on in-flight jobs before shedding 429 (0 = unbounded)")
	flag.StringVar(&o.statusAddr, "status-addr", "",
		"serve telemetry (/metrics, /statusz, /trace, /debug/pprof) on this address (empty = off)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second,
		"on SIGINT/SIGTERM, how long to wait for in-flight jobs before exiting anyway")
	flag.Parse()

	// SIGQUIT dumps the flight-recorder ring as JSONL to stderr and
	// keeps running — the field-debugging hook every binary carries.
	obs.FlightDumpOnSIGQUIT("felagate")

	if err := run(o, nil); err != nil {
		fmt.Fprintln(os.Stderr, "felagate:", err)
		os.Exit(1)
	}
}

// run serves the gateway until a signal arrives on sig, then drains and
// returns nil for a clean exit. A nil sig installs the real
// SIGINT/SIGTERM handler; tests inject their own channel.
func run(o gateOpts, sig <-chan os.Signal) error {
	if o.shards < 1 {
		return fmt.Errorf("-shards must be at least 1")
	}
	pol, ok := jobs.PolicyByName(o.alloc)
	if !ok {
		return fmt.Errorf("unknown allocation policy %q (want fair-share, priority, throughput-max or oasis)", o.alloc)
	}
	var adm jobs.AdmissionPolicy
	if o.admission != "" {
		if adm, ok = jobs.AdmissionByName(o.admission); !ok {
			return fmt.Errorf("unknown admission policy %q (want none or oasis)", o.admission)
		}
	}

	reg := obs.NewRegistry()
	spans := obs.NewTracer("felagate")

	mgrs := make([]*jobs.Manager, o.shards)
	backends := make([]gate.Shard, o.shards)
	for i := range mgrs {
		mgrs[i] = jobs.NewManager(jobs.Config{Policy: pol, Admission: adm, Metrics: reg, Spans: spans})
		backends[i] = mgrs[i]
	}
	// stopManagers drains the shards, bounded: a manager's Done only
	// closes once every job it holds has finished, so a queued job with
	// no pool workers left would otherwise hang shutdown forever.
	stopManagers := func(timeout time.Duration) {
		for _, m := range mgrs {
			m.Stop()
		}
		drained := make(chan struct{})
		go func() {
			for _, m := range mgrs {
				<-m.Done()
			}
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(timeout):
			fmt.Println("felagate: shard drain deadline passed, exiting anyway")
		}
	}

	// Pool workers register over TCP and are dealt round-robin across
	// the shards; each shard rebalances its own slice of the pool.
	poolL, err := transport.Listen(o.poolAddr)
	if err != nil {
		stopManagers(5 * time.Second)
		return err
	}
	defer poolL.Close()
	go func() {
		for i := 0; ; i++ {
			c, err := poolL.Accept()
			if err != nil {
				return
			}
			mgrs[i%len(mgrs)].Admit(c)
		}
	}()

	gw, err := gate.New(gate.Config{
		Shards:      backends,
		TenantRate:  o.tenantRate,
		TenantBurst: o.tenantBurst,
		TenantQuota: o.tenantQuota,
		QueueBound:  o.queueBound,
		Metrics:     reg,
		Spans:       spans,
	})
	if err != nil {
		stopManagers(5 * time.Second)
		return err
	}

	if o.statusAddr != "" {
		bound, stop, err := obs.Serve(o.statusAddr, obs.NewHandler(obs.HandlerOptions{
			Registry: reg,
			Status:   gw.StatusAny,
			Health: func() error {
				if gw.Status().Draining {
					return fmt.Errorf("gateway is draining")
				}
				return nil
			},
			Tracers: []*obs.Tracer{spans},
		}))
		if err != nil {
			stopManagers(5 * time.Second)
			return err
		}
		defer stop()
		fmt.Printf("felagate: telemetry on http://%s (/metrics /statusz /trace /debug/pprof)\n", bound)
	}

	httpL, err := net.Listen("tcp", o.addr)
	if err != nil {
		stopManagers(5 * time.Second)
		return err
	}
	srv := &http.Server{Handler: gw}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(httpL) }()
	fmt.Printf("felagate: serving on http://%s (%d shards, pool on %s, policy %s)\n",
		httpL.Addr(), o.shards, poolL.Addr(), pol.Name())

	if sig == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(ch)
		sig = ch
	}
	select {
	case err := <-serveErr:
		stopManagers(5 * time.Second)
		return fmt.Errorf("http server: %w", err)
	case s := <-sig:
		fmt.Printf("felagate: %v received, draining (timeout %s)\n", s, o.drainTimeout)
	}

	// Drain: submissions shed with 503 while everything already admitted
	// runs to completion, bounded by the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		fmt.Printf("felagate: drain deadline passed with %d jobs still in flight\n", gw.Inflight())
	}
	gw.Close() // end any live SSE streams so Shutdown can finish

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Printf("felagate: http shutdown: %v\n", err)
	}
	poolL.Close()
	stopManagers(o.drainTimeout)

	st := gw.Status()
	fmt.Printf("felagate: drained (%d submitted, %d settled, %d ok, %d shed at edge)\n",
		st.Submitted, st.Settled, st.JobsOK,
		st.ShedRateLimited+st.ShedQuotaExceeded+st.ShedQueueFull+st.ShedDraining)
	return nil
}
