// Command cacd runs a central connection admission control server for an
// RTnet-shaped network — the deployment the paper plans for switched
// real-time connections in the next version of RTnet (Section 4.3,
// discussion 3).
//
// Usage:
//
//	cacd [-listen ADDR] [-ring N] [-terminals N] [-queue CELLS] [-low-queue CELLS] [-policy hard|soft]
//	     [-state FILE] [-state-strict] [-durability journal-sync|journal]
//	     [-journal FILE] [-compact-records N] [-compact-bytes N]
//	     [-io-timeout D] [-drain-timeout D]
//	     [-shed-rate R] [-shed-burst B] [-max-inflight N]
//	     [-metrics-addr ADDR]
//	     [-replication-listen ADDR] [-replicate-from ADDR]
//	     [-replication-mode async|semi-sync|sync] [-replication-lag N]
//	     [-failover-timeout D]
//	     [-shard-id ID] [-prepare-ttl D] [-reap-interval D]
//	cacd -shard-map SPEC -intent-log FILE [-listen ADDR] [-prepare-ttl D]
//	     [-coord-replication-listen ADDR] [-coord-replicate-from ADDR]
//	     [-coord-failover-timeout D] [-metrics-addr ADDR]
//
// The server manages one CAC network whose switches are the ring nodes of
// an RTnet with the given shape. Clients (see cmd/cacctl) set up and tear
// down connections over newline-delimited JSON, declare link failures
// (fail-link / restore-link) and query daemon health.
//
// On a fail-link the server evicts every connection traversing the link
// and re-admits each over the wrapped ring of paper Section 5 through the
// full CAC check; connections whose hard bound cannot survive the longer
// route stay down and are reported, never silently degraded. On SIGTERM
// the server drains: it stops accepting, lets in-flight requests finish
// (bounded by -drain-timeout) and writes a final state snapshot.
//
// With -state the server persists admission state: it appends one
// CRC-framed record to a write-ahead log before acknowledging each
// setup/teardown/fail-link/restore-link, and folds the log into the state
// file (the snapshot) at the -compact-records/-compact-bytes thresholds.
// -durability journal-sync (the default) fsyncs each group commit before
// the ack, so an acknowledged operation survives power loss; journal
// skips the fsync and survives a process crash only. On restart the
// server loads the snapshot, replays
// journal records past its sequence watermark, re-fails the recorded
// links, and re-admits every surviving connection through the full CAC
// check (cacctl state verify inspects both files offline).
//
// With -shed-rate (and optionally -shed-burst, -max-inflight) the server
// sheds control-plane overload in degradation order: read-only queries
// first, then low-priority setups, then high-priority setups; teardown,
// fail-link, restore-link and health are never shed. A shed request gets
// a typed overloaded response with a retry-after hint; the shed counters
// are visible through cacctl health.
//
// With -replication-listen the server ships every journal record to a
// connected warm standby before (sync), loosely before (semi-sync,
// bounded by -replication-lag) or after (async) acknowledging the
// client; the standby — a second cacd started with -replicate-from —
// appends the same records to its own journal and keeps a warm in-memory
// copy of the admission state, refusing writes until promoted. Promotion
// (cacctl promote, or automatic after -failover-timeout of primary
// silence) advances the replication epoch and fences the old primary:
// if it comes back it refuses all mutations with the split-brain code
// until restarted as a standby of the new primary. Both roles require
// -state.
//
// With -shard-id the server serves as one shard of a partitioned CAC:
// it answers the two-phase shard-prepare/commit/abort operations for the
// switches it owns, journals every phase transition, and runs an orphan
// reaper (every -reap-interval) that expires prepared holds whose
// coordinator died before deciding — a reaped hold releases its
// bandwidth after -prepare-ttl and any late commit is re-admitted
// through the full CAC check or refused with a typed code.
//
// With -shard-map the daemon runs as the coordinator instead: it parses
// the map (s0@host:port=sw0,sw1;s1@host:port=sw2,...), drives multi-hop
// setups across the owning shards through crash-safe two-phase
// reserve-commit, journals its decisions in -intent-log, resolves any
// in-doubt transactions from a previous incarnation at boot, and fronts
// the fleet with the ordinary wire protocol on -listen (setup, teardown,
// list, health). A map entry may name a replicated shard pair
// (s0@primary|standby=sw0,...): on a transport error the coordinator
// fails over to the standby, promotes it, and completes the in-flight
// transaction against the survivor while the fenced ex-primary refuses
// late writes.
//
// The coordinator itself replicates with -coord-replication-listen: every
// intent-log record is shipped synchronously to a standby coordinator —
// a second cacd started with the same -shard-map plus
// -coord-replicate-from — before the coordinator acts on it. The standby
// appends the stream to its own -intent-log and, after
// -coord-failover-timeout of active silence, promotes: it bumps the
// coordinator term durably, fences the old active, re-opens its log copy
// as the coordinator, resolves the in-doubt tail, and serves. Every
// two-phase shard operation carries the term, so the shards' ratchets
// shut a superseded coordinator out even if the fence never arrived.
//
// The server always keeps an in-process metrics registry and admission
// tracer: every setup decision, rejection reason, crankback re-admission,
// shed request and journal append is counted, and the counter snapshot
// travels with the health response (cacctl metrics). With -metrics-addr
// the registry is additionally served over HTTP in Prometheus text format
// at /metrics and as JSON at /debug/vars. On drain the scrape endpoint
// closes first and the final non-zero counters are flushed to stdout
// before the last state snapshot is written.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/failover"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/overload"
	"atmcac/internal/replica"
	"atmcac/internal/rtnet"
	"atmcac/internal/shard"
	"atmcac/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cacd:", err)
		os.Exit(1)
	}
}

// testHookListen, when non-nil, receives the bound listener address once
// the server is reachable — lets tests run on an ephemeral port (-listen
// 127.0.0.1:0) without parsing stdout.
var testHookListen func(net.Addr)

// testHookMetricsListen mirrors testHookListen for the -metrics-addr
// HTTP listener.
var testHookMetricsListen func(net.Addr)

// testHookReplListen mirrors testHookListen for the -replication-listen
// stream listener.
var testHookReplListen func(net.Addr)

func run(args []string) error {
	fs := flag.NewFlagSet("cacd", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:7801", "listen address")
		ring         = fs.Int("ring", 16, "ring nodes")
		terminals    = fs.Int("terminals", 16, "terminals per ring node")
		queue        = fs.Float64("queue", 32, "priority-1 FIFO size (cells)")
		lowQueue     = fs.Float64("low-queue", 0, "optional priority-2 FIFO size (cells); 0 disables")
		policy       = fs.String("policy", "hard", "CDV accumulation: hard or soft")
		state        = fs.String("state", "", "persist established connections to this JSON file")
		stateStrict  = fs.Bool("state-strict", false, "exit non-zero when any stored connection cannot be restored")
		durability   = fs.String("durability", string(wire.DurabilityJournalSync), "persistence mode: journal-sync (write-ahead log, fsynced before the ack) or journal (no fsync)")
		journalPath  = fs.String("journal", "", "write-ahead journal file; defaults to STATE.journal")
		compactRecs  = fs.Int("compact-records", wire.DefaultCompactRecords, "fold the journal into the snapshot after this many records")
		compactBytes = fs.Int64("compact-bytes", wire.DefaultCompactBytes, "fold the journal into the snapshot after this many bytes")
		ioTimeout    = fs.Duration("io-timeout", 0, "per-request read/write deadline on client connections; 0 disables")
		wireProto    = fs.String("wire-proto", "auto", "wire codecs offered to clients: auto (negotiate the binary framing per connection) or json (refuse binary hellos)")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "how long a SIGTERM drain waits for in-flight requests")
		shedRate     = fs.Float64("shed-rate", 0, "sustained control-plane request rate (req/s) before shedding; 0 disables the token bucket")
		shedBurst    = fs.Float64("shed-burst", 0, "token bucket capacity (requests); 0 derives from -shed-rate")
		maxInflight  = fs.Int("max-inflight", 0, "concurrently executing non-recovery requests; 0 means unlimited")
		metricsAddr  = fs.String("metrics-addr", "", "serve Prometheus metrics on this HTTP address (/metrics, /debug/vars); empty disables")
		replListen   = fs.String("replication-listen", "", "serve the journal-shipping replication stream to standbys on this address; empty disables")
		replFrom     = fs.String("replicate-from", "", "run as a warm read-only standby of the primary at this replication address; empty disables")
		replMode     = fs.String("replication-mode", "sync", "acknowledgement discipline when shipping to a standby: async, semi-sync, or sync")
		replLag      = fs.Uint64("replication-lag", 0, "semi-sync: max shipped-but-unacked records before mutations block; 0 uses the default")
		failoverTmo  = fs.Duration("failover-timeout", 0, "standby: promote automatically once the primary has been silent this long; 0 means promotion only via cacctl promote")
		shardID      = fs.String("shard-id", "", "serve as this shard of a partitioned CAC: answer two-phase shard operations and reap orphaned prepares")
		shardMap     = fs.String("shard-map", "", "run as the coordinator of this shard map (s0@primary|standby=sw0,sw1;...) instead of serving a network")
		intentLog    = fs.String("intent-log", "", "coordinator: write-ahead intent log for crash-safe two-phase decisions (required with -shard-map)")
		coordReplLn  = fs.String("coord-replication-listen", "", "coordinator: ship the intent log to a standby coordinator connecting on this address; empty disables")
		coordFrom    = fs.String("coord-replicate-from", "", "run as the standby coordinator tailing the active coordinator's intent stream at this address; promotes after -coord-failover-timeout of silence")
		coordFailTmo = fs.Duration("coord-failover-timeout", 2*time.Second, "standby coordinator: promote once the active has been silent this long")
		prepareTTL   = fs.Duration("prepare-ttl", wire.DefaultPrepareTTL, "lifetime of a phase-1 reservation before the orphan reaper may expire it")
		reapInterval = fs.Duration("reap-interval", time.Second, "shard: how often the orphan reaper scans for expired prepared holds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardMap != "" {
		if *shardID != "" {
			return fmt.Errorf("-shard-map (coordinator) and -shard-id (shard) are exclusive roles")
		}
		return runCoordinator(coordinatorConfig{
			listen:      *listen,
			mapSpec:     *shardMap,
			logPath:     *intentLog,
			replListen:  *coordReplLn,
			replFrom:    *coordFrom,
			failoverTmo: *coordFailTmo,
			prepareTTL:  *prepareTTL,
			metricsAddr: *metricsAddr,
		}, sigOnTerm())
	}
	if *coordFrom != "" || *coordReplLn != "" {
		return fmt.Errorf("-coord-replicate-from and -coord-replication-listen require -shard-map (coordinator roles)")
	}
	var cdv core.CDVPolicy
	switch *policy {
	case "hard":
		cdv = core.HardCDV{}
	case "soft":
		cdv = core.SoftCDV{}
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	queues := map[core.Priority]float64{1: *queue}
	if *lowQueue > 0 {
		queues[2] = *lowQueue
	}
	rt, err := rtnet.New(rtnet.Config{
		RingNodes:        *ring,
		TerminalsPerNode: *terminals,
		QueueCells:       queues,
		Policy:           cdv,
	})
	if err != nil {
		return err
	}
	// Register the shutdown handler before the listener becomes reachable,
	// so a signal arriving at any point after startup is honoured.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	srv := wire.NewServer(rt.Core())
	srv.SetIOTimeout(*ioTimeout)
	switch *wireProto {
	case "auto":
	case "json":
		srv.SetJSONOnly(true)
	default:
		return fmt.Errorf("unknown -wire-proto %q (auto or json)", *wireProto)
	}
	srv.SetFailoverHandler(failoverHandler(rt))
	// The registry and tracer always exist — health carries the counter
	// snapshot even without a scrape endpoint; -metrics-addr only decides
	// whether they are additionally served over HTTP.
	reg := obs.NewRegistry()
	tracer := obs.NewMetricsTracer(reg)
	if *shedRate > 0 || *maxInflight > 0 {
		lim := overload.NewLimiter(overload.LimiterConfig{
			Rate:        *shedRate,
			Burst:       *shedBurst,
			MaxInFlight: *maxInflight,
		})
		srv.SetLimiter(lim)
		fmt.Printf("cacd: overload control %s (high-priority floor %d per burst)\n",
			lim, lim.HighPriorityFloor())
	}
	mode, err := wire.ParseDurabilityMode(*durability)
	if err != nil {
		return err
	}
	durabilitySet := false
	fs.Visit(func(f *flag.Flag) { durabilitySet = durabilitySet || f.Name == "durability" })
	if *state != "" {
		dur, err := wire.OpenDurable(wire.DurableConfig{
			StatePath:      *state,
			JournalPath:    *journalPath,
			Mode:           mode,
			CompactRecords: *compactRecs,
			CompactBytes:   *compactBytes,
		})
		if err != nil {
			return err
		}
		defer dur.Close()
		recoverStart := time.Now()
		rep, err := dur.Recover(rt.Core())
		if err != nil {
			return err
		}
		tracer.Trace(obs.Event{
			Kind:     obs.KindReplay,
			Restored: rep.Restored,
			Failed:   len(rep.Failed),
			Records:  rep.JournalRecords,
			Duration: time.Since(recoverStart),
		})
		for _, w := range rep.Warnings {
			fmt.Printf("cacd: %s\n", w)
		}
		srv.SetDurable(dur)
		if rep.Restored > 0 {
			fmt.Printf("cacd: restored %d connections from %s (%d journal records replayed, %s durability)\n",
				rep.Restored, *state, rep.JournalRecords, mode)
		}
		for _, l := range rep.FailedLinks {
			fmt.Printf("cacd: link %s restored as failed\n", l)
		}
		for _, f := range rep.Failed {
			fmt.Printf("cacd: connection %q no longer admissible: %v\n", f.ID, f.Err)
		}
		if len(rep.Failed) > 0 && *stateStrict {
			return fmt.Errorf("state-strict: %d of %d stored connections could not be restored",
				len(rep.Failed), rep.Restored+len(rep.Failed))
		}
	} else if durabilitySet {
		return fmt.Errorf("-durability requires -state")
	}
	// Replication ships the write-ahead journal, so both roles require
	// -state: without a journal there is no stream to ship and no
	// watermark for the standby to resume from.
	var prim *replica.Primary
	var sb *replica.Standby
	if *replListen != "" || *replFrom != "" {
		if *state == "" {
			return fmt.Errorf("replication requires -state")
		}
		rmode, err := replica.ParseMode(*replMode)
		if err != nil {
			return err
		}
		if *replListen != "" {
			rln, err := net.Listen("tcp", *replListen)
			if err != nil {
				return err
			}
			prim = replica.NewPrimary(srv, replica.PrimaryConfig{
				Mode:   rmode,
				MaxLag: *replLag,
				Tracer: tracer,
			})
			srv.SetShipper(prim)
			prim.RegisterMetrics(reg)
			go func() { _ = prim.Serve(rln) }()
			defer prim.Close()
			fmt.Printf("cacd: shipping the journal (%s mode) to standbys on %s\n", rmode, rln.Addr())
			if testHookReplListen != nil {
				testHookReplListen(rln.Addr())
			}
		}
		if *replFrom != "" {
			srv.SetStandby(true)
			sb = replica.NewStandby(srv, replica.StandbyConfig{
				PrimaryAddr:     *replFrom,
				FailoverTimeout: *failoverTmo,
			})
			sb.RegisterMetrics(reg)
			go func() {
				// A standby that stops (its log failed, or it is the newer
				// node) serves reads and no longer fails over on its own.
				if err := sb.Run(); err != nil {
					fmt.Fprintln(os.Stderr, "cacd: standby stopped:", err)
				}
			}()
			defer sb.Close()
			if *failoverTmo > 0 {
				fmt.Printf("cacd: warm standby of %s (auto-failover after %s of silence)\n", *replFrom, *failoverTmo)
			} else {
				fmt.Printf("cacd: warm standby of %s (promotion via cacctl promote)\n", *replFrom)
			}
		}
		srv.SetReplicationStatus(replica.Status(prim, sb))
	}
	if *shardID != "" {
		srv.SetShardID(*shardID)
		stop := srv.StartOrphanReaper(*reapInterval)
		defer stop()
		fmt.Printf("cacd: serving as shard %q (orphan reaper every %s)\n", *shardID, *reapInterval)
	}
	// After SetLimiter and SetDurable, so the scrape-time gauges see the
	// final configuration (limiter tokens, journal size).
	srv.SetObservability(reg, tracer)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", reg.VarsHandler())
		metricsSrv = &http.Server{Handler: mux}
		go func() { _ = metricsSrv.Serve(ml) }()
		fmt.Printf("cacd: serving metrics on http://%s/metrics\n", ml.Addr())
		if testHookMetricsListen != nil {
			testHookMetricsListen(ml.Addr())
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("cacd: managing %d ring nodes (%d terminals each, %s CDV) on %s\n",
		*ring, *terminals, cdv.Name(), l.Addr())
	if testHookListen != nil {
		testHookListen(l.Addr())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case sig := <-sigCh:
		fmt.Printf("cacd: received %v, draining\n", sig)
		// Close the scrape endpoint and flush the final counter snapshot
		// before Shutdown drains the persist-retry loop: a scraper must
		// not read a half-drained server, and the totals must reach the
		// log even if the final snapshot write below hangs or fails.
		if metricsSrv != nil {
			_ = metricsSrv.Close()
			dumpFinalMetrics(reg)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-errCh
		return nil
	case err := <-errCh:
		if err == wire.ErrServerClosed {
			return nil
		}
		return err
	}
}

// sigOnTerm registers the shutdown signals before any listener becomes
// reachable.
func sigOnTerm() chan os.Signal {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	return sigCh
}

// coordinatorConfig gathers the coordinator-role flags.
type coordinatorConfig struct {
	listen      string
	mapSpec     string
	logPath     string
	replListen  string // serve the intent stream to a standby coordinator
	replFrom    string // tail the active coordinator; promote on silence
	failoverTmo time.Duration
	prepareTTL  time.Duration
	metricsAddr string
}

// runCoordinator serves the cross-shard setup front end: crash-safe
// two-phase reserve-commit over the shard map, every decision journaled
// in the intent log, in-doubt transactions from a previous incarnation
// resolved at boot. With replFrom set it first runs as the standby
// coordinator, tailing the active's intent stream; when the active goes
// silent it promotes and falls through to the active role on the same
// log at the bumped term.
func runCoordinator(cfg coordinatorConfig, sigCh chan os.Signal) error {
	defer signal.Stop(sigCh)
	if cfg.logPath == "" {
		return fmt.Errorf("-shard-map requires -intent-log (the coordinator journals every decision)")
	}
	m, err := shard.ParseMap(cfg.mapSpec)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	tracer := obs.NewMetricsTracer(reg)

	promoted := false
	if cfg.replFrom != "" {
		// A standby that can never promote is a tape archive, not HA.
		if cfg.failoverTmo <= 0 {
			return fmt.Errorf("-coord-replicate-from needs a positive -coord-failover-timeout")
		}
		log, _, _, err := shard.OpenIntentLog(journal.OSFS{}, cfg.logPath)
		if err != nil {
			return err
		}
		sb := shard.NewStandbyCoordinator(log, replica.StandbyConfig{
			PrimaryAddr:     cfg.replFrom,
			FailoverTimeout: cfg.failoverTmo,
		})
		sb.RegisterMetrics(reg)
		fmt.Printf("cacd: standby coordinator tailing %s (promote after %s of silence)\n",
			cfg.replFrom, cfg.failoverTmo)
		var sigSeen atomic.Bool
		stopWatch := make(chan struct{})
		go func() {
			select {
			case sig := <-sigCh:
				sigSeen.Store(true)
				fmt.Printf("cacd: received %v, closing standby coordinator\n", sig)
				sb.Close()
			case <-stopWatch:
			}
		}()
		runErr := sb.Run()
		close(stopWatch)
		closeErr := log.Close()
		switch {
		case sigSeen.Load():
			return nil
		case runErr != nil:
			return runErr
		case closeErr != nil:
			return closeErr
		}
		// Promoted: the takeover term is durable in the local log copy.
		// Fall through to the active role reading it back.
		promoted = true
	}

	coord, err := shard.NewCoordinator(m, journal.OSFS{}, cfg.logPath)
	if err != nil {
		return err
	}
	defer coord.Close()
	if promoted {
		tracer.Trace(obs.Event{Kind: obs.KindCoordPromote, Outcome: obs.OutcomeOK, Epoch: coord.Epoch()})
		fmt.Printf("cacd: active coordinator silent for %s — promoted to term %d\n",
			cfg.failoverTmo, coord.Epoch())
	}
	coord.PrepareTTL = cfg.prepareTTL
	coord.SetTracer(tracer)
	coord.RegisterMetrics(reg)
	rep, err := coord.Recover(context.Background())
	if err != nil {
		return err
	}
	for _, t := range rep.Committed {
		fmt.Printf("cacd: recovery re-drove committed transaction %s\n", t)
	}
	for _, t := range rep.Aborted {
		fmt.Printf("cacd: recovery aborted undecided transaction %s\n", t)
	}
	for _, t := range rep.InDoubt {
		fmt.Printf("cacd: transaction %s still IN DOUBT (a shard is unreachable)\n", t)
	}
	if cfg.replListen != "" {
		rln, err := net.Listen("tcp", cfg.replListen)
		if err != nil {
			return err
		}
		prim, err := shard.NewIntentPrimary(coord, replica.PrimaryConfig{Tracer: tracer})
		if err != nil {
			return err
		}
		prim.RegisterMetrics(reg)
		go func() { _ = prim.Serve(rln) }()
		defer prim.Close()
		fmt.Printf("cacd: shipping the intent log to a standby coordinator on %s\n", rln.Addr())
		if testHookReplListen != nil {
			testHookReplListen(rln.Addr())
		}
	}
	var metricsSrv *http.Server
	if cfg.metricsAddr != "" {
		ml, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", reg.VarsHandler())
		metricsSrv = &http.Server{Handler: mux}
		go func() { _ = metricsSrv.Serve(ml) }()
		fmt.Printf("cacd: serving metrics on http://%s/metrics\n", ml.Addr())
		if testHookMetricsListen != nil {
			testHookMetricsListen(ml.Addr())
		}
	}
	srv := shard.NewServer(coord)
	l, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	switches := 0
	for _, info := range m.Shards() {
		switches += len(m.Switches(info.ID))
	}
	fmt.Printf("cacd: coordinating %d shards (%d switches, prepare TTL %s, term %d) on %s\n",
		len(m.Shards()), switches, cfg.prepareTTL, coord.Epoch(), l.Addr())
	if testHookListen != nil {
		testHookListen(l.Addr())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case sig := <-sigCh:
		fmt.Printf("cacd: received %v, closing coordinator\n", sig)
		if metricsSrv != nil {
			_ = metricsSrv.Close()
			dumpFinalMetrics(reg)
		}
		if err := srv.Close(); err != nil {
			return err
		}
		<-errCh
		return nil
	case err := <-errCh:
		if err == wire.ErrServerClosed {
			return nil
		}
		return err
	}
}

// dumpFinalMetrics writes the non-zero counters and gauges to stdout in
// name order — the last observable state of a draining daemon, flushed
// while the final snapshot write may still be pending.
func dumpFinalMetrics(reg *obs.Registry) {
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("cacd: final %s = %g\n", name, snap[name])
	}
}

// failoverHandler adapts the RTnet wrapped-ring re-admission engine to the
// wire server's fail-link operation: after the server has failed the link
// and evicted the traversing connections, each is re-admitted over the
// wrapped route through the full CAC check.
func failoverHandler(rt *rtnet.Network) wire.FailoverHandler {
	eng := failover.New(rt, failover.Options{})
	return func(from, to string, evicted []core.ConnRequest) []wire.ReadmitOutcome {
		node, err := rtnet.NodeIndex(from)
		if err == nil {
			if l, lerr := rt.PrimaryLink(node); lerr != nil || l.To != to {
				err = fmt.Errorf("%s->%s is not a primary ring link; wrapped re-admission unavailable", from, to)
			}
		}
		if err != nil {
			outs := make([]wire.ReadmitOutcome, 0, len(evicted))
			for _, r := range evicted {
				fmt.Printf("cacd: connection %q down after %s->%s failure: %v\n", r.ID, from, to, err)
				outs = append(outs, wire.ReadmitOutcome{ID: r.ID, Error: err.Error()})
			}
			return outs
		}
		rep := eng.Readmit(evicted, node, core.Link{From: from, To: to})
		outs := make([]wire.ReadmitOutcome, 0, len(rep.Outcomes))
		for _, o := range rep.Outcomes {
			out := wire.ReadmitOutcome{ID: o.ID, Readmitted: o.Readmitted, Attempts: o.Attempts, Hops: len(o.Route)}
			if o.Err != nil {
				out.Error = o.Err.Error()
			}
			if o.Readmitted {
				fmt.Printf("cacd: re-admitted %q over the wrapped ring (%d hops, %d attempts)\n",
					o.ID, len(o.Route), o.Attempts)
			} else {
				fmt.Printf("cacd: connection %q rejected in degraded mode: %v\n", o.ID, o.Err)
			}
			outs = append(outs, out)
		}
		return outs
	}
}
