// Command cacctl is the client of the cacd central CAC server: it requests
// real-time connection setups with the paper's (PCR, SCR, MBS, D)
// parameters, tears connections down, lists them, and queries end-to-end
// delay bounds.
//
// Usage:
//
//	cacctl [-addr HOST:PORT] setup        -id ID -origin N [-terminal N] [-ring N] [-pcr R] [-scr R] [-mbs N] [-prio P] [-delay CELLS] [-timeout D] [-retry]
//	cacctl [-addr HOST:PORT] teardown     -id ID
//	cacctl [-addr HOST:PORT] list
//	cacctl [-addr HOST:PORT] bound        -origin N [-terminal N] [-ring N] [-prio P]
//	cacctl [-addr HOST:PORT] fail-link    -node N [-ring N]
//	cacctl [-addr HOST:PORT] restore-link -node N [-ring N]
//	cacctl [-addr HOST:PORT] health
//	cacctl [-addr HOST:PORT] metrics [-match SUBSTRING]
//	cacctl [-addr HOST:PORT] promote
//	cacctl [-addr HOST:PORT] replication
//	cacctl [-addr HOST:PORT] shard status
//	cacctl [-addr HOST:PORT] shard reap
//	cacctl shard route -map SPEC SWITCH...
//	cacctl state verify [-journal FILE] STATE
//	cacctl state show   [-journal FILE] STATE
//
// setup and bound address RTnet broadcast routes: the connection enters the
// ring at node -origin via terminal -terminal and visits every other ring
// node (-ring must match the server's ring size). While exactly one
// primary ring link is down and the healthy route crosses it, setup
// requests and bound prices the Section 5 wrapped route, the one the
// server re-admits evicted connections over.
//
// fail-link declares primary ring link N -> N+1 failed: the server evicts
// every connection traversing it and re-admits each over the wrapped ring,
// reporting the per-connection outcomes. restore-link clears the failure.
// health reports connection count, replication role and epoch, failed
// links, audit state and — when the server runs with overload control —
// the per-class admit/shed counters.
// metrics prints the server's full counter snapshot (setups by outcome,
// rejections by taxonomy code, journal latencies, ...) over the CAC
// protocol, no scrape endpoint required. Failed commands print the
// server's stable error code as a trailing (code=...) when one was sent.
//
// shard status prints a sharded server's two-phase posture — shard name,
// role, epoch and the live prepared holds with their TTLs. Pointed at a
// coordinator it renders the whole cluster: the coordinator's own term,
// fencing state and in-doubt count, then one line per shard pair with
// the driven member's replication role and epoch, the probed peer's, and
// the pair's standby lag. shard reap forces an orphan-reaper pass and
// lists the expired transactions. shard route is offline: given the -map
// spec a coordinator runs with (replicated pair entries
// s0@primary|standby=sw0,... included), it prints how a route splits
// into per-shard legs.
//
// state verify checks a cacd snapshot+journal pair offline — CRC status,
// record counts, sequence watermark, torn-tail position — without a
// running daemon and without modifying either file; it exits non-zero
// when the snapshot is corrupt. state show additionally prints the
// admission state a recovery would replay.
//
// setup -timeout bounds the whole call and propagates the remaining budget
// to the server, which abandons the admission mid-route when it expires.
// setup -retry backs off and retries when the server sheds the request,
// honouring the server's retry-after hint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"atmcac/internal/core"
	"atmcac/internal/failover"
	"atmcac/internal/journal"
	"atmcac/internal/overload"
	"atmcac/internal/rtnet"
	"atmcac/internal/shard"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		// Surface the server's stable machine-readable code alongside the
		// message, so scripts can branch on it without string matching.
		var remote *wire.RemoteError
		if errors.As(err, &remote) && remote.Code != "" {
			fmt.Fprintf(os.Stderr, "cacctl: %v (code=%s)\n", err, remote.Code)
		} else {
			fmt.Fprintln(os.Stderr, "cacctl:", err)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cacctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7801", "cacd address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand: setup, teardown, list, or bound")
	}
	// The state subcommand inspects persistence files on the local disk —
	// its whole point is working while the daemon is down, so it must not
	// dial the server. shard route only consults the map spec, so it works
	// offline too.
	if rest[0] == "state" {
		return stateCmd(rest[1:])
	}
	if rest[0] == "shard" && len(rest) > 1 && rest[1] == "route" {
		return shardRoute(rest[2:])
	}
	client, err := wire.Dial(*addr)
	if err != nil {
		return err
	}
	defer client.Close()

	switch rest[0] {
	case "setup":
		return setup(client, rest[1:])
	case "teardown":
		return teardown(client, rest[1:])
	case "list":
		return list(client)
	case "bound":
		return bound(client, rest[1:])
	case "inspect":
		return inspect(client, rest[1:])
	case "audit":
		return audit(client)
	case "fail-link":
		return failLink(client, rest[1:])
	case "restore-link":
		return restoreLink(client, rest[1:])
	case "health":
		return health(client)
	case "metrics":
		return metrics(client, rest[1:])
	case "promote":
		return promote(client)
	case "replication":
		return replication(client)
	case "shard":
		return shardCmd(client, rest[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

// stateCmd is the offline persistence inspector: verify checks a
// snapshot+journal pair's integrity without a running daemon (and
// without modifying anything — no quarantine, no torn-tail repair),
// show additionally prints the admission state a recovery would replay.
func stateCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("state requires a subcommand: verify or show")
	}
	sub := args[0]
	if sub != "verify" && sub != "show" {
		return fmt.Errorf("unknown state subcommand %q (want verify or show)", sub)
	}
	fs := flag.NewFlagSet("state "+sub, flag.ContinueOnError)
	jpath := fs.String("journal", "", "write-ahead journal file; defaults to STATE.journal")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("state %s requires exactly one snapshot path: cacctl state %s [-journal FILE] STATE", sub, sub)
	}
	path := fs.Arg(0)
	if *jpath == "" {
		*jpath = path + ".journal"
	}

	st, warning, serr := wire.NewStateStore(path).ReadState()
	if serr != nil {
		fmt.Printf("snapshot %s: CORRUPT: %v\n", path, serr)
	} else {
		status := "checksum ok"
		if warning != "" {
			status = warning
		}
		fmt.Printf("snapshot %s: %d connections, %d failed links, watermark %d, %s\n",
			path, len(st.Connections), len(st.FailedLinks), st.LastSeq, status)
	}

	scan, jerr := journal.ScanFile(journal.OSFS{}, *jpath)
	if jerr != nil {
		return fmt.Errorf("journal %s: %w", *jpath, jerr)
	}
	past := 0
	for _, rec := range scan.Records {
		if rec.Seq > st.LastSeq {
			past++
		}
	}
	if scan.Torn {
		fmt.Printf("journal %s: %d valid records (%d past watermark), TORN at byte %d (repaired on next daemon boot)\n",
			*jpath, len(scan.Records), past, scan.Valid)
	} else {
		fmt.Printf("journal %s: %d valid records (%d past watermark), clean\n",
			*jpath, len(scan.Records), past)
	}

	if sub == "show" && serr == nil {
		final, _ := journal.Replay(journal.State{
			Requests:    st.Connections,
			FailedLinks: st.FailedLinks,
		}, st.LastSeq, scan.Records)
		fmt.Printf("replayed state: %d connections, %d failed links\n",
			len(final.Requests), len(final.FailedLinks))
		for _, req := range final.Requests {
			fmt.Printf("  %s prio %d, %d hops\n", req.ID, req.Priority, len(req.Route))
		}
		for _, l := range final.FailedLinks {
			fmt.Printf("  link DOWN %s\n", l)
		}
	}
	if serr != nil {
		return fmt.Errorf("snapshot is corrupt")
	}
	return nil
}

// primaryLinkFlags parses -node/-ring into the switch names of primary
// ring link node -> node+1.
func primaryLinkFlags(name string, args []string) (from, to string, err error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var (
		node = fs.Int("node", -1, "transmitting ring node of the primary link (link is node -> node+1)")
		ring = fs.Int("ring", 16, "ring size (must match the server)")
	)
	if err := fs.Parse(args); err != nil {
		return "", "", err
	}
	if *node < 0 || *node >= *ring {
		return "", "", fmt.Errorf("%s requires -node in [0, %d)", name, *ring)
	}
	return rtnet.SwitchName(*node), rtnet.SwitchName((*node + 1) % *ring), nil
}

func failLink(client *wire.Client, args []string) error {
	from, to, err := primaryLinkFlags("fail-link", args)
	if err != nil {
		return err
	}
	report, err := client.FailLink(context.Background(), from, to)
	if err != nil {
		return err
	}
	fmt.Printf("link %s failed: %d connections evicted\n", report.Link, len(report.Outcomes))
	down := 0
	for _, o := range report.Outcomes {
		if o.Readmitted {
			fmt.Printf("  re-admitted %s (%d attempts)\n", o.ID, o.Attempts)
		} else {
			down++
			fmt.Printf("  DOWN %s: %s\n", o.ID, o.Error)
		}
	}
	if down > 0 {
		return fmt.Errorf("%d connections not re-admitted in degraded mode", down)
	}
	return nil
}

func restoreLink(client *wire.Client, args []string) error {
	from, to, err := primaryLinkFlags("restore-link", args)
	if err != nil {
		return err
	}
	if err := client.RestoreLink(context.Background(), from, to); err != nil {
		return err
	}
	fmt.Printf("link %s->%s restored\n", from, to)
	return nil
}

func health(client *wire.Client) error {
	h, err := client.Health(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("connections: %d\n", h.Connections)
	// Role and epoch travel in every health response, so one command
	// tells primary from fenced standby — and names the shard when the
	// server is one partition of a sharded CAC.
	if h.Role != "" {
		fmt.Printf("role: %s (epoch %d)\n", h.Role, h.Epoch)
	}
	if h.ShardID != "" {
		fmt.Printf("shard: %s\n", h.ShardID)
	}
	if h.Prepared > 0 {
		fmt.Printf("prepared holds: %d\n", h.Prepared)
	}
	if len(h.FailedLinks) == 0 {
		fmt.Println("links: all up")
	} else {
		for _, l := range h.FailedLinks {
			fmt.Printf("link DOWN: %s\n", l)
		}
	}
	fmt.Printf("audit violations: %d\n", h.Violations)
	if h.Draining {
		fmt.Println("state: draining")
	}
	if h.Overload != nil {
		fmt.Printf("overload: in-flight %d, shed %d\n", h.Overload.InFlight, h.Overload.TotalShed())
		for _, class := range []string{"recovery", "setup-high", "setup-low", "read"} {
			adm, shed := h.Overload.Admitted[class], h.Overload.Shed[class]
			if adm == 0 && shed == 0 {
				continue
			}
			fmt.Printf("  %-10s admitted %d, shed %d\n", class, adm, shed)
		}
	}
	if h.Violations > 0 {
		return fmt.Errorf("%d queues over budget", h.Violations)
	}
	return nil
}

// metrics prints the server's counter snapshot, carried over the CAC
// protocol itself via the health operation — no scrape endpoint needed.
func metrics(client *wire.Client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	match := fs.String("match", "", "print only metrics whose name contains this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := client.Health(context.Background())
	if err != nil {
		return err
	}
	if len(h.Metrics) == 0 {
		return fmt.Errorf("server reports no metrics (observability not attached)")
	}
	names := make([]string, 0, len(h.Metrics))
	for name := range h.Metrics {
		if *match != "" && !strings.Contains(name, *match) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %g\n", name, h.Metrics[name])
	}
	return nil
}

// promote asks a warm standby to take over as primary: it bumps the
// replication epoch, persists a snapshot at the new epoch, and starts
// accepting writes; the old primary is fenced when it next makes contact.
func promote(client *wire.Client) error {
	rep, err := client.Promote(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("promoted: primary at epoch %d (journal watermark %d)\n", rep.Epoch, rep.LastSeq)
	return nil
}

// replication prints the node's replication posture: role, epoch,
// stream liveness and the ack watermark/lag.
func replication(client *wire.Client) error {
	rep, err := client.Replication(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("role: %s\n", rep.Role)
	fmt.Printf("epoch: %d\n", rep.Epoch)
	if rep.Role == "fenced" {
		fmt.Printf("fenced by epoch: %d\n", rep.FencedBy)
	}
	if rep.Mode != "" {
		fmt.Printf("mode: %s\n", rep.Mode)
	}
	fmt.Printf("journal watermark: %d\n", rep.LastSeq)
	switch rep.Role {
	case "primary":
		if rep.Mode == "" {
			break
		}
		if rep.Connected {
			fmt.Printf("standby: connected, acked seq %d, lag %d\n", rep.AckedSeq, rep.Lag)
		} else {
			fmt.Println("standby: not connected")
		}
	case "standby":
		if rep.Connected {
			fmt.Printf("primary: connected, applied seq %d\n", rep.AckedSeq)
		} else {
			fmt.Println("primary: not connected")
		}
	}
	return nil
}

// shardCmd holds the online shard inspectors: status prints one shard's
// (or the coordinator's) two-phase posture, reap forces an orphan-reaper
// pass. The offline route planner is handled before dialing.
func shardCmd(client *wire.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("shard requires a subcommand: status, reap, or route")
	}
	switch args[0] {
	case "status":
		st, fleet, warning, err := client.ShardStatusFleet(context.Background())
		if err != nil {
			return err
		}
		printShardStatus(st)
		printShardFleet(fleet)
		if warning != "" {
			fmt.Printf("warning: %s\n", warning)
		}
		return nil
	case "reap":
		reaped, err := client.ShardReap(context.Background())
		if err != nil {
			return err
		}
		if len(reaped) == 0 {
			fmt.Println("no overdue prepared holds")
			return nil
		}
		for _, txn := range reaped {
			fmt.Printf("reaped %s\n", txn)
		}
		return nil
	default:
		return fmt.Errorf("unknown shard subcommand %q (want status, reap, or route)", args[0])
	}
}

func printShardStatus(st *wire.ShardStatusReport) {
	if st.ShardID != "" {
		fmt.Printf("shard: %s\n", st.ShardID)
	}
	fmt.Printf("role: %s (epoch %d)\n", st.Role, st.Epoch)
	if st.CoordEpoch > 0 {
		fmt.Printf("coordinator term: %d\n", st.CoordEpoch)
	}
	if st.Role == "coordinator" || (st.Role == "fenced" && st.ShardID == "coordinator") {
		fmt.Printf("in-doubt transactions: %d\n", st.InDoubt)
	}
	if len(st.Prepared) == 0 {
		fmt.Println("prepared holds: none")
		return
	}
	for _, h := range st.Prepared {
		state := fmt.Sprintf("expires in %dms", h.ExpiresInMillis)
		if h.ExpiresInMillis < 0 {
			state = "OVERDUE (next reaper pass expires it)"
		}
		fmt.Printf("hold %s: connection %s, %s\n", h.Txn, h.ID, state)
	}
}

// printShardFleet renders the coordinator's per-pair fan-out: one line
// per shard naming the member the coordinator currently drives, its
// replication role and epoch, the probed peer, and the standby lag of a
// replicated pair.
func printShardFleet(fleet []wire.ShardStatusReport) {
	for _, sh := range fleet {
		line := fmt.Sprintf("shard %s: %s (epoch %d)", sh.ShardID, sh.Role, sh.Epoch)
		if sh.Addr != "" {
			line += " at " + sh.Addr
		}
		if sh.PeerAddr != "" {
			line += fmt.Sprintf(", peer %s (epoch %d) at %s", sh.PeerRole, sh.PeerEpoch, sh.PeerAddr)
			line += fmt.Sprintf(", standby lag %d", sh.StandbyLag)
		}
		if n := len(sh.Prepared); n > 0 {
			line += fmt.Sprintf(", %d prepared holds", n)
		}
		fmt.Println(line)
	}
}

// shardRoute plans a route against a shard map offline: it prints which
// shard owns each contiguous run of hops in path order. The coordinator
// itself prepares one merged leg per shard, so a route that revisits a
// shard (a ring wrap) is flagged: it reaches that shard as a single
// prepare and needs an explicit end-to-end delay bound (-delay).
func shardRoute(args []string) error {
	fs := flag.NewFlagSet("shard route", flag.ContinueOnError)
	mapSpec := fs.String("map", "", "shard map (s0@primary|standby=sw0,sw1;...), as passed to cacd -shard-map")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapSpec == "" {
		return fmt.Errorf("shard route requires -map")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("shard route requires the route's switch names: cacctl shard route -map SPEC sw0 sw1 ...")
	}
	m, err := shard.ParseMap(*mapSpec)
	if err != nil {
		return err
	}
	route := make(core.Route, fs.NArg())
	for i, sw := range fs.Args() {
		route[i] = core.Hop{Switch: sw}
	}
	segs, err := m.Segments(route)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		names := make([]string, len(seg.Route))
		for j, hop := range seg.Route {
			names[j] = hop.Switch
		}
		fmt.Printf("leg %d: shard %s (%s): %s\n", i+1, seg.Shard.ID, seg.Shard.Addr, strings.Join(names, " -> "))
	}
	legs, interleaved, err := m.Legs(route)
	if err != nil {
		return err
	}
	fmt.Printf("%d hops over %d shards\n", len(route), len(legs))
	if interleaved {
		fmt.Println("route revisits a shard: its runs are prepared as one merged leg; setup needs an explicit -delay bound")
	}
	return nil
}

func audit(client *wire.Client) error {
	violations, err := client.Audit(context.Background())
	if err != nil {
		return err
	}
	if len(violations) == 0 {
		fmt.Println("audit clean: every queue within its guarantee")
		return nil
	}
	for _, v := range violations {
		fmt.Printf("VIOLATION %s out %d prio %d: bound %.2f > limit %.0f\n",
			v.Switch, v.Out, v.Priority, v.Bound, v.Limit)
	}
	return fmt.Errorf("%d queues over budget", len(violations))
}

func inspect(client *wire.Client, args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	var (
		swName   = fs.String("switch", "", "restrict to one switch; empty means all")
		envelope = fs.Bool("envelope", false, "print the aggregated arrival envelopes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reports, err := client.Inspect(context.Background(), *swName)
	if err != nil {
		return err
	}
	if len(reports) == 0 {
		fmt.Println("no loaded queues")
		return nil
	}
	for _, r := range reports {
		status := fmt.Sprintf("bound %.2f / limit %.0f cells, backlog %.2f", r.Bound, r.Limit, r.Backlog)
		if r.Unstable {
			status = "UNSTABLE (delay unbounded)"
		}
		fmt.Printf("%s out %d prio %d: %s\n", r.Switch, r.Out, r.Priority, status)
		if *envelope {
			fmt.Print("  envelope: {")
			for i, sg := range r.Envelope {
				if i > 0 {
					fmt.Print(",")
				}
				fmt.Printf("(%.4g,%.4g)", sg.Rate, sg.Start)
			}
			fmt.Println("}")
		}
	}
	return nil
}

// broadcastRoute builds the RTnet broadcast route of (origin, terminal) on
// a ring of the given size. When failed holds exactly one link, a primary
// ring link that the healthy route crosses, it builds the wrapped route.
func broadcastRoute(ring, origin, terminal int, failed []core.Link) (core.Route, error) {
	n, err := rtnet.New(rtnet.Config{RingNodes: ring, TerminalsPerNode: terminal + 1})
	if err != nil {
		return nil, err
	}
	route, err := n.BroadcastRoute(origin, terminal)
	if err != nil || len(failed) != 1 || !slices.Contains(n.RouteLinks(route), failed[0]) {
		return route, err
	}
	from, err := failover.PrimaryFrom(n, failed[0].From, failed[0].To)
	if err != nil {
		return route, nil
	}
	return n.WrappedBroadcastRoute(origin, terminal, from)
}

func setup(client *wire.Client, args []string) error {
	fs := flag.NewFlagSet("setup", flag.ContinueOnError)
	var (
		id       = fs.String("id", "", "connection ID")
		ring     = fs.Int("ring", 16, "ring size (must match the server)")
		origin   = fs.Int("origin", 0, "origin ring node")
		terminal = fs.Int("terminal", 0, "origin terminal (0-based)")
		pcr      = fs.Float64("pcr", 0.01, "peak cell rate (normalized)")
		scr      = fs.Float64("scr", 0, "sustainable cell rate; 0 means CBR")
		mbs      = fs.Float64("mbs", 1, "maximum burst size (cells)")
		prio     = fs.Int("prio", 1, "priority (1 is highest)")
		delay    = fs.Float64("delay", 0, "requested end-to-end bound (cell times); 0 means none")
		timeout  = fs.Duration("timeout", 0, "overall setup deadline, propagated to the server; 0 means none")
		retry    = fs.Bool("retry", false, "back off and retry when the server sheds the request as overloaded")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("setup requires -id")
	}
	spec := traffic.CBR(*pcr)
	if *scr > 0 {
		spec = traffic.VBR(*pcr, *scr, *mbs)
	}
	h, err := client.Health(context.Background())
	if err != nil {
		return err
	}
	route, err := broadcastRoute(*ring, *origin, *terminal, h.FailedLinks)
	if err != nil {
		return err
	}
	req := core.ConnRequest{
		ID:         core.ConnID(*id),
		Spec:       spec,
		Priority:   core.Priority(*prio),
		Route:      route,
		DelayBound: *delay,
	}
	var opts []wire.CallOption
	if *timeout > 0 {
		opts = append(opts, wire.WithTimeout(*timeout))
	}
	if *retry {
		opts = append(opts, wire.WithRetry(&overload.Backoff{}))
	}
	adm, err := client.Setup(context.Background(), req, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("connected %s: end-to-end guaranteed %.0f cell times, computed %.1f\n",
		adm.ID, adm.EndToEndGuaranteed, adm.EndToEndComputed)
	return nil
}

func teardown(client *wire.Client, args []string) error {
	fs := flag.NewFlagSet("teardown", flag.ContinueOnError)
	id := fs.String("id", "", "connection ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("teardown requires -id")
	}
	if err := client.Teardown(context.Background(), core.ConnID(*id)); err != nil {
		return err
	}
	fmt.Printf("released %s\n", *id)
	return nil
}

func list(client *wire.Client) error {
	ids, err := client.List(context.Background())
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		fmt.Println("no connections")
		return nil
	}
	for _, id := range ids {
		fmt.Println(id)
	}
	return nil
}

func bound(client *wire.Client, args []string) error {
	fs := flag.NewFlagSet("bound", flag.ContinueOnError)
	var (
		ring     = fs.Int("ring", 16, "ring size (must match the server)")
		origin   = fs.Int("origin", 0, "origin ring node")
		terminal = fs.Int("terminal", 0, "origin terminal (0-based)")
		prio     = fs.Int("prio", 1, "priority")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := client.Health(context.Background())
	if err != nil {
		return err
	}
	route, err := broadcastRoute(*ring, *origin, *terminal, h.FailedLinks)
	if err != nil {
		return err
	}
	d, err := client.RouteBound(context.Background(), route, core.Priority(*prio))
	if err != nil {
		return err
	}
	fmt.Printf("end-to-end computed bound: %.1f cell times (%.0f us on OC-3)\n",
		d, d*traffic.OC3.CellTimeSeconds()*1e6)
	return nil
}
