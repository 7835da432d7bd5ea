package obs

import (
	"sync"
	"time"
)

// Kind discriminates trace events.
type Kind string

// Event kinds. One event is emitted per admission-plane decision or
// persistence step; the emitting layer fills only the fields its kind
// documents.
const (
	// KindSetup is one end-to-end connection setup decision (core).
	// Fields: Conn, Outcome, Code, Hops, Duration.
	KindSetup Kind = "setup"
	// KindHopCheck is one per-hop Algorithm 4.1 check (core).
	// Fields: Conn, Switch, Outcome, Code, Duration, Slack (accepted only).
	KindHopCheck Kind = "hop-check"
	// KindTeardown is one connection release (core).
	// Fields: Conn, Outcome, Code, Duration.
	KindTeardown Kind = "teardown"
	// KindFailLink is one link-failure eviction pass (core).
	// Fields: Link, Evicted, Duration.
	KindFailLink Kind = "fail-link"
	// KindRestoreLink is one link repair (core). Fields: Link, Outcome.
	KindRestoreLink Kind = "restore-link"
	// KindReadmit is one evicted connection's crankback re-admission
	// outcome after a link failure (wire). Fields: Conn, Outcome,
	// Crankback (wrapped-route hops), Retries (setup attempts).
	KindReadmit Kind = "readmit"
	// KindAudit is one full network audit (core).
	// Fields: Duration, Violations.
	KindAudit Kind = "audit"
	// KindRequest is one wire request (wire). Fields: Op, Outcome
	// ("ok", "error" or "shed"), Code, Class (when classified), Duration.
	KindRequest Kind = "request"
	// KindShed is a request shed by overload control before any work
	// (wire). Fields: Op, Class, Code ("overloaded-rate" or
	// "overloaded-concurrency").
	KindShed Kind = "shed"
	// KindJournalAppend is one write-ahead journal append (journal, via
	// wire). Fields: Outcome, Duration (whole append: the write of the
	// group carrying the record plus that group's fsync), Bytes.
	KindJournalAppend Kind = "journal-append"
	// KindCompaction is one journal fold-into-snapshot (wire).
	// Fields: Outcome, Duration.
	KindCompaction Kind = "compaction"
	// KindReplay is the one recovery pass at boot (wire).
	// Fields: Restored, Failed, Records (journal records past the
	// watermark), Duration.
	KindReplay Kind = "replay"
	// KindReplShip is one journal record shipped to the standby (replica).
	// Fields: Outcome, Duration (write-to-stream latency), Bytes, Epoch.
	KindReplShip Kind = "repl-ship"
	// KindReplAck is one standby acknowledgement observed by the primary
	// (replica). Fields: Duration (append-to-ack latency), Epoch.
	KindReplAck Kind = "repl-ack"
	// KindPromote is one standby promotion to primary (wire).
	// Fields: Epoch (the new term), Outcome.
	KindPromote Kind = "promote"
	// KindFence is an ex-primary refusing writes after observing a higher
	// term (wire). Fields: Epoch (the fencing term).
	KindFence Kind = "fence"
	// KindShardPrepare is phase 1 of a cross-shard admission on a shard
	// (wire). Fields: Conn, Outcome, Code, Duration.
	KindShardPrepare Kind = "shard-prepare"
	// KindShardCommit is phase 2 commit on a shard (wire).
	// Fields: Conn, Outcome, Code, Duration.
	KindShardCommit Kind = "shard-commit"
	// KindShardAbort is a coordinator abort or unwind on a shard (wire).
	// Fields: Conn, Outcome, Duration.
	KindShardAbort Kind = "shard-abort"
	// KindShardReap is one orphan-reaper pass expiring prepared holds
	// whose TTL lapsed without a decision (wire). Fields: Evicted (holds
	// reaped this pass).
	KindShardReap Kind = "shard-reap"
	// KindInDoubt is one in-doubt transaction resolved by a recovering
	// coordinator from its intent log (shard). Fields: Conn (transaction
	// ID), Outcome ("accepted" re-driven commit, "rejected" abort).
	KindInDoubt Kind = "in-doubt"
	// KindShardFailover is the coordinator re-pointing a shard pair at
	// its surviving member after the active one stopped answering
	// (shard). Fields: Op (shard ID), Outcome, Epoch (the survivor's
	// term after promotion).
	KindShardFailover Kind = "shard-failover"
	// KindCoordPromote is a standby coordinator taking over the intent
	// log at a bumped term (shard). Fields: Epoch (the new coordinator
	// term), Outcome.
	KindCoordPromote Kind = "coord-promote"
	// KindGroupCommit is one group-commit fsync covering the journal
	// records of one or more coalesced operations (wire). Fields:
	// Records (operations covered by this one fsync), Outcome, Duration
	// (the leader's whole commit: the group's one write plus its fsync).
	KindGroupCommit Kind = "group-commit"
	// KindBatch is one batch-setup or batch-teardown request (wire).
	// Fields: Op, Records (items in the batch), Outcome, Duration.
	KindBatch Kind = "batch"
)

// Outcome values shared by event kinds.
const (
	OutcomeAccepted = "accepted"
	OutcomeRejected = "rejected"
	OutcomeError    = "error"
	OutcomeOK       = "ok"
	OutcomeShed     = "shed"
)

// Event is one structured trace record. Which fields are meaningful
// depends on Kind (see the kind constants); unset fields are zero.
type Event struct {
	Kind    Kind
	Conn    string // connection ID
	Switch  string // hop switch name
	Link    string // "from->to" for link events
	Op      string // wire operation
	Class   string // overload class
	Outcome string // accepted | rejected | error | ok | shed
	Code    string // stable error taxonomy code (empty on success)

	Hops       int // route length of a setup
	Crankback  int // wrapped-route hops of a re-admission
	Retries    int // extra attempts beyond the first
	Evicted    int // connections evicted by a fail-link
	Violations int // audit violations found
	Restored   int // recovery: connections re-admitted
	Failed     int // recovery: connections no longer admissible
	Records    int // recovery: journal records replayed

	Duration time.Duration // whole-operation latency
	Slack    float64       // guarantee minus computed bound, cell times
	Bytes    int64         // journal append frame size
	Epoch    uint64        // replication term of a ship/promote/fence
}

// Tracer receives trace events. Implementations must be safe for
// concurrent use and must not block: tracers run inline on the admission
// path.
type Tracer interface {
	Trace(Event)
}

// MetricsTracer folds trace events into a Registry under the atmcac_*
// naming convention. It is the single place events become metrics: core,
// wire and journal all emit Events, and every counter the daemon exports
// is derived here.
type MetricsTracer struct {
	reg *Registry

	setups         map[string]*Counter // by outcome
	rejections     map[string]*Counter // by code
	teardowns      map[string]*Counter // by outcome
	setupSeconds   *Histogram
	hopSeconds     *Histogram
	hopSlack       *Histogram
	faillinks      *Counter
	evicted        *Counter
	restorelinks   *Counter
	readmitted     *Counter
	readmitDown    *Counter
	readmitTries   *Counter
	crankbackHops  *Counter
	auditSeconds   *Histogram
	auditViol      *Gauge
	appendSeconds  *Histogram
	fsyncSeconds   *Histogram
	appendBytes    *Counter
	appendErrors   *Counter
	compactions    map[string]*Counter // by outcome
	compactSecs    *Histogram
	shipSeconds    *Histogram
	shipBytes      *Counter
	shipErrors     *Counter
	ackSeconds     *Histogram
	promotions     *Counter
	fences         *Counter
	epochGauge     *Gauge
	shardPrepares  map[string]*Counter // by outcome
	shardCommits   map[string]*Counter // by outcome
	shardAborts    *Counter
	orphansReaped  *Counter
	inDoubt        *Counter
	shardFailovers *Counter
	coordPromotes  *Counter
	coordEpochG    *Gauge
	groupCommits   map[string]*Counter // by outcome
	groupCommitOps *Histogram
	groupCommitSec *Histogram
	batchItems     *Histogram

	mu sync.Mutex // guards rejections (open code vocabulary)
}

// NewMetricsTracer returns a tracer writing into reg.
func NewMetricsTracer(reg *Registry) *MetricsTracer {
	t := &MetricsTracer{reg: reg}
	t.setups = map[string]*Counter{
		OutcomeAccepted: reg.Counter("atmcac_admission_setups_total", L("outcome", OutcomeAccepted)),
		OutcomeRejected: reg.Counter("atmcac_admission_setups_total", L("outcome", OutcomeRejected)),
		OutcomeError:    reg.Counter("atmcac_admission_setups_total", L("outcome", OutcomeError)),
	}
	reg.Help("atmcac_admission_setups_total", "End-to-end connection setup decisions by outcome.")
	t.rejections = map[string]*Counter{}
	reg.Help("atmcac_admission_rejections_total", "CAC rejections by stable taxonomy code.")
	t.teardowns = map[string]*Counter{
		OutcomeOK:    reg.Counter("atmcac_admission_teardowns_total", L("outcome", OutcomeOK)),
		OutcomeError: reg.Counter("atmcac_admission_teardowns_total", L("outcome", OutcomeError)),
	}
	reg.Help("atmcac_admission_teardowns_total", "Connection releases by outcome.")
	t.setupSeconds = reg.Histogram("atmcac_admission_setup_seconds", DefLatencyBuckets)
	reg.Help("atmcac_admission_setup_seconds", "End-to-end setup latency (all outcomes).")
	t.hopSeconds = reg.Histogram("atmcac_admission_hop_check_seconds", DefLatencyBuckets)
	reg.Help("atmcac_admission_hop_check_seconds", "Per-hop Algorithm 4.1 check duration.")
	t.hopSlack = reg.Histogram("atmcac_admission_hop_slack_cells", DefSlackBuckets)
	reg.Help("atmcac_admission_hop_slack_cells", "Queueing-bound slack D(j,p)-D'(j,p) of accepted hops, cell times.")
	t.faillinks = reg.Counter("atmcac_failover_faillink_total")
	t.evicted = reg.Counter("atmcac_failover_evicted_total")
	t.restorelinks = reg.Counter("atmcac_failover_restorelink_total")
	t.readmitted = reg.Counter("atmcac_failover_readmitted_total")
	t.readmitDown = reg.Counter("atmcac_failover_down_total")
	reg.Help("atmcac_failover_down_total", "Evicted connections not re-admitted in degraded mode.")
	t.readmitTries = reg.Counter("atmcac_failover_readmit_attempts_total")
	t.crankbackHops = reg.Counter("atmcac_failover_crankback_hops_total")
	reg.Help("atmcac_failover_crankback_hops_total", "Total wrapped-route hops traversed by re-admissions.")
	t.auditSeconds = reg.Histogram("atmcac_audit_seconds", DefLatencyBuckets)
	t.auditViol = reg.Gauge("atmcac_audit_violations")
	reg.Help("atmcac_audit_violations", "Violations found by the most recent audit.")
	t.appendSeconds = reg.Histogram("atmcac_journal_append_seconds", DefLatencyBuckets)
	reg.Help("atmcac_journal_append_seconds", "Write-ahead journal append latency (including fsync share).")
	t.fsyncSeconds = reg.Histogram("atmcac_journal_fsync_seconds", DefLatencyBuckets)
	reg.Help("atmcac_journal_fsync_seconds", "Journal fsyncs, one per group commit.")
	t.appendBytes = reg.Counter("atmcac_journal_append_bytes_total")
	t.appendErrors = reg.Counter("atmcac_journal_append_errors_total")
	t.compactions = map[string]*Counter{
		OutcomeOK:    reg.Counter("atmcac_journal_compactions_total", L("outcome", OutcomeOK)),
		OutcomeError: reg.Counter("atmcac_journal_compactions_total", L("outcome", OutcomeError)),
	}
	t.compactSecs = reg.Histogram("atmcac_journal_compaction_seconds", DefLatencyBuckets)
	t.shipSeconds = reg.Histogram("atmcac_repl_ship_seconds", DefLatencyBuckets)
	reg.Help("atmcac_repl_ship_seconds", "Journal record ship latency to the standby (mode-dependent: includes the ack wait in sync mode).")
	t.shipBytes = reg.Counter("atmcac_repl_shipped_bytes_total")
	reg.Help("atmcac_repl_shipped_bytes_total", "Journal payload bytes shipped to the standby.")
	t.shipErrors = reg.Counter("atmcac_repl_ship_errors_total")
	reg.Help("atmcac_repl_ship_errors_total", "Records that could not be shipped (standby down or stream error).")
	t.ackSeconds = reg.Histogram("atmcac_repl_ack_seconds", DefLatencyBuckets)
	reg.Help("atmcac_repl_ack_seconds", "Standby acknowledgement latency per shipped record.")
	t.promotions = reg.Counter("atmcac_failover_promotions_total")
	reg.Help("atmcac_failover_promotions_total", "Standby promotions to primary.")
	t.fences = reg.Counter("atmcac_repl_fenced_total")
	reg.Help("atmcac_repl_fenced_total", "Times this node fenced itself after observing a higher term.")
	t.epochGauge = reg.Gauge("atmcac_repl_epoch")
	reg.Help("atmcac_repl_epoch", "Current replication epoch (term) of this node.")
	t.shardPrepares = map[string]*Counter{
		OutcomeAccepted: reg.Counter("atmcac_shard_prepares_total", L("outcome", OutcomeAccepted)),
		OutcomeRejected: reg.Counter("atmcac_shard_prepares_total", L("outcome", OutcomeRejected)),
	}
	reg.Help("atmcac_shard_prepares_total", "Cross-shard phase-1 reservations by outcome.")
	t.shardCommits = map[string]*Counter{
		OutcomeOK:    reg.Counter("atmcac_shard_commits_total", L("outcome", OutcomeOK)),
		OutcomeError: reg.Counter("atmcac_shard_commits_total", L("outcome", OutcomeError)),
	}
	reg.Help("atmcac_shard_commits_total", "Cross-shard phase-2 commits by outcome.")
	t.shardAborts = reg.Counter("atmcac_shard_aborts_total")
	reg.Help("atmcac_shard_aborts_total", "Cross-shard aborts applied (coordinator abort or unwind).")
	t.orphansReaped = reg.Counter("atmcac_shard_orphans_reaped_total")
	reg.Help("atmcac_shard_orphans_reaped_total", "Prepared holds expired by the orphan reaper after their TTL.")
	t.inDoubt = reg.Counter("atmcac_shard_indoubt_resolutions_total")
	reg.Help("atmcac_shard_indoubt_resolutions_total", "In-doubt transactions resolved from the coordinator intent log.")
	t.shardFailovers = reg.Counter("atmcac_shard_failovers_total")
	reg.Help("atmcac_shard_failovers_total", "Shard pairs re-pointed at their surviving member by the coordinator.")
	t.coordPromotes = reg.Counter("atmcac_coord_promotions_total")
	reg.Help("atmcac_coord_promotions_total", "Standby coordinator takeovers of the intent log.")
	t.coordEpochG = reg.Gauge("atmcac_coord_observed_epoch")
	reg.Help("atmcac_coord_observed_epoch", "Coordinator term of the most recent takeover observed by this tracer.")
	t.groupCommits = map[string]*Counter{
		OutcomeOK:    reg.Counter("atmcac_journal_group_commits_total", L("outcome", OutcomeOK)),
		OutcomeError: reg.Counter("atmcac_journal_group_commits_total", L("outcome", OutcomeError)),
	}
	reg.Help("atmcac_journal_group_commits_total", "Group-commit fsyncs by outcome.")
	t.groupCommitOps = reg.Histogram("atmcac_journal_group_commit_ops", DefCountBuckets)
	reg.Help("atmcac_journal_group_commit_ops", "Operations coalesced under one group-commit fsync.")
	t.groupCommitSec = reg.Histogram("atmcac_journal_group_commit_seconds", DefLatencyBuckets)
	reg.Help("atmcac_journal_group_commit_seconds", "Group-commit latency: the group's one write plus its fsync.")
	t.batchItems = reg.Histogram("atmcac_wire_batch_items", DefCountBuckets)
	reg.Help("atmcac_wire_batch_items", "Items per batch-setup/batch-teardown request.")
	return t
}

// Registry returns the backing registry.
func (t *MetricsTracer) Registry() *Registry { return t.reg }

// outcomeCounter resolves an outcome in a pre-seeded map, falling back to
// the registry for vocabulary the seed did not anticipate.
func (t *MetricsTracer) outcomeCounter(seeded map[string]*Counter, name, outcome string) *Counter {
	if c, ok := seeded[outcome]; ok {
		return c
	}
	return t.reg.Counter(name, L("outcome", outcome))
}

// Trace implements Tracer.
func (t *MetricsTracer) Trace(ev Event) {
	switch ev.Kind {
	case KindSetup:
		t.outcomeCounter(t.setups, "atmcac_admission_setups_total", ev.Outcome).Inc()
		t.setupSeconds.Observe(ev.Duration.Seconds())
		if ev.Outcome == OutcomeRejected {
			code := ev.Code
			if code == "" {
				code = "rejected"
			}
			t.mu.Lock()
			c, ok := t.rejections[code]
			if !ok {
				c = t.reg.Counter("atmcac_admission_rejections_total", L("code", code))
				t.rejections[code] = c
			}
			t.mu.Unlock()
			c.Inc()
		}
	case KindHopCheck:
		t.hopSeconds.Observe(ev.Duration.Seconds())
		if ev.Outcome == OutcomeAccepted {
			t.hopSlack.Observe(ev.Slack)
		}
	case KindTeardown:
		t.outcomeCounter(t.teardowns, "atmcac_admission_teardowns_total", ev.Outcome).Inc()
	case KindFailLink:
		t.faillinks.Inc()
		t.evicted.Add(ev.Evicted)
	case KindRestoreLink:
		t.restorelinks.Inc()
	case KindReadmit:
		t.readmitTries.Add(1 + ev.Retries)
		if ev.Outcome == OutcomeAccepted {
			t.readmitted.Inc()
			t.crankbackHops.Add(ev.Crankback)
		} else {
			t.readmitDown.Inc()
		}
	case KindAudit:
		t.auditSeconds.Observe(ev.Duration.Seconds())
		t.auditViol.Set(float64(ev.Violations))
	case KindRequest:
		t.reg.Counter("atmcac_requests_total", L("op", ev.Op), L("outcome", ev.Outcome)).Inc()
		t.reg.Histogram("atmcac_request_seconds", DefLatencyBuckets, L("op", ev.Op)).Observe(ev.Duration.Seconds())
	case KindShed:
		t.reg.Counter("atmcac_overload_shed_total", L("class", ev.Class)).Inc()
	case KindJournalAppend:
		if ev.Outcome == OutcomeError {
			t.appendErrors.Inc()
			return
		}
		t.appendSeconds.Observe(ev.Duration.Seconds())
		t.appendBytes.Add(int(ev.Bytes))
	case KindCompaction:
		t.outcomeCounter(t.compactions, "atmcac_journal_compactions_total", ev.Outcome).Inc()
		if ev.Outcome == OutcomeOK {
			t.compactSecs.Observe(ev.Duration.Seconds())
		}
	case KindReplay:
		t.reg.Counter("atmcac_recovery_restored_total").Add(ev.Restored)
		t.reg.Counter("atmcac_recovery_failed_total").Add(ev.Failed)
		t.reg.Counter("atmcac_recovery_journal_records_total").Add(ev.Records)
	case KindReplShip:
		if ev.Outcome == OutcomeError {
			t.shipErrors.Inc()
			return
		}
		t.shipSeconds.Observe(ev.Duration.Seconds())
		t.shipBytes.Add(int(ev.Bytes))
	case KindReplAck:
		t.ackSeconds.Observe(ev.Duration.Seconds())
	case KindPromote:
		if ev.Outcome == OutcomeOK {
			t.promotions.Inc()
			t.epochGauge.Set(float64(ev.Epoch))
		}
	case KindFence:
		t.fences.Inc()
		t.epochGauge.Set(float64(ev.Epoch))
	case KindShardPrepare:
		t.outcomeCounter(t.shardPrepares, "atmcac_shard_prepares_total", ev.Outcome).Inc()
	case KindShardCommit:
		t.outcomeCounter(t.shardCommits, "atmcac_shard_commits_total", ev.Outcome).Inc()
	case KindShardAbort:
		t.shardAborts.Inc()
	case KindShardReap:
		t.orphansReaped.Add(ev.Evicted)
	case KindInDoubt:
		t.inDoubt.Inc()
	case KindShardFailover:
		if ev.Outcome == OutcomeOK {
			t.shardFailovers.Inc()
		}
	case KindCoordPromote:
		if ev.Outcome == OutcomeOK {
			t.coordPromotes.Inc()
			t.coordEpochG.Set(float64(ev.Epoch))
		}
	case KindGroupCommit:
		t.outcomeCounter(t.groupCommits, "atmcac_journal_group_commits_total", ev.Outcome).Inc()
		t.groupCommitOps.Observe(float64(ev.Records))
		if ev.Outcome == OutcomeOK {
			t.groupCommitSec.Observe(ev.Duration.Seconds())
			// A group commit is one journal fsync covering Records
			// appends; feed the fsync histogram so its count stays the
			// number of fsyncs issued, whichever path issued them.
			t.fsyncSeconds.Observe(ev.Duration.Seconds())
		}
	case KindBatch:
		t.reg.Counter("atmcac_wire_batches_total", L("op", ev.Op)).Inc()
		t.batchItems.Observe(float64(ev.Records))
	}
}
