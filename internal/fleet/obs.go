package fleet

import (
	"io"
	"sync/atomic"

	"afs/internal/obs"
)

// fleetObs bundles the fleet health metrics. One instance registers on
// obs.Default() at init and is shared by every Router in the process; each
// counter uses the *shard index* as its obs slot, so a scrape of the
// expvar/Prometheus endpoint exposes the failure history per decode shard
// (modulo obs.DefaultShards) while the rendered totals aggregate the fleet.
// Everything here is a pure sink — the router never reads a metric to make
// a decision — so fixed-seed fleet runs are bit-identical with metrics on
// or off.
type fleetObs struct {
	roundsRouted *obs.Counter // rounds sent to shards (incl. replays)
	corrections  *obs.Counter // corrections delivered to the sink
	replayDups   *obs.Counter // replayed corrections dropped by seq dedup
	checkpoints  *obs.Counter // shard checkpoints received
	replayed     *obs.Counter // journal rounds replayed during recovery
	reconnects   *obs.Counter // sessions re-established to a crashed shard
	failovers    *obs.Counter // streams re-homed onto a different shard
	crashes      *obs.Counter // shard sessions lost (read/write error or heartbeat)
	hbTimeouts   *obs.Counter // crashes declared by heartbeat loss specifically
	refusals     *obs.Counter // admission refusals (CDA block capacity)
	shedWindows  *obs.Counter // rounds shed by shard-side backpressure (from flush ledgers)
	journalSheds *obs.Counter // sessions shed for exceeding the replay-journal byte cap
	stallSheds   *obs.Counter // sessions shed for acknowledging no round envelope
	windowWaits  *obs.Counter // times RunRounds waited on a full round window
	wireTx       *obs.Counter // bytes written to shard sockets
	wireRx       *obs.Counter // bytes read from shard sockets
}

var (
	fObs = func() *fleetObs {
		reg := obs.Default()
		const s = obs.DefaultShards
		return &fleetObs{
			roundsRouted: reg.NewCounter("afs_fleet_rounds_routed_total", "syndrome rounds routed to decode shards (including replays)", s),
			corrections:  reg.NewCounter("afs_fleet_corrections_total", "corrections delivered to the router sink", s),
			replayDups:   reg.NewCounter("afs_fleet_replay_dup_corrections_total", "replayed corrections dropped by per-stream sequence dedup", s),
			checkpoints:  reg.NewCounter("afs_fleet_checkpoints_total", "decoder checkpoints received from shards", s),
			replayed:     reg.NewCounter("afs_fleet_replayed_rounds_total", "journal rounds replayed during crash recovery", s),
			reconnects:   reg.NewCounter("afs_fleet_reconnects_total", "shard sessions re-established after a crash", s),
			failovers:    reg.NewCounter("afs_fleet_failovers_total", "streams re-homed onto a surviving shard", s),
			crashes:      reg.NewCounter("afs_fleet_shard_crashes_total", "shard sessions lost to read/write errors or heartbeat loss", s),
			hbTimeouts:   reg.NewCounter("afs_fleet_heartbeat_timeouts_total", "shard crashes declared by heartbeat loss", s),
			refusals:     reg.NewCounter("afs_fleet_admission_refusals_total", "stream opens refused by CDA block admission", s),
			shedWindows:  reg.NewCounter("afs_fleet_shed_rounds_total", "rounds shed by shard-side backpressure (folded in at flush)", s),
			journalSheds: reg.NewCounter("afs_fleet_journal_shed_sessions_total", "shard sessions shed for exceeding the replay-journal byte cap", s),
			stallSheds:   reg.NewCounter("afs_fleet_stall_shed_sessions_total", "shard sessions shed for acknowledging no round envelope within the wait", s),
			windowWaits:  reg.NewCounter("afs_fleet_window_waits_total", "times the router waited on a full round window", s),
			wireTx:       reg.NewCounter("afs_fleet_wire_tx_bytes_total", "bytes written to shard sockets", s),
			wireRx:       reg.NewCounter("afs_fleet_wire_rx_bytes_total", "bytes read from shard sockets", s),
		}
	}()

	// shardsUp is the process-wide count of live shard sessions, exported as
	// a gauge so a dashboard shows a crash the moment it is detected.
	shardsUp atomic.Int64
)

func init() {
	obs.Default().RegisterGauge("afs_fleet_shards_up", "live shard sessions across all routers", func() float64 {
		return float64(shardsUp.Load())
	})
}

// countingReader counts bytes read off a shard socket into the per-shard
// wire-RX slot (and a router-local total), without buffering or copying.
type countingReader struct {
	r     io.Reader
	shard int
	total *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		fObs.wireRx.Add(c.shard, uint64(n))
		c.total.Add(uint64(n))
	}
	return n, err
}
