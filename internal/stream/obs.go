package stream

import (
	"sync/atomic"

	"afs/internal/obs"
)

// streamObs bundles the fleet-wide stream metrics. One instance is
// registered on obs.Default() at init and shared by every Decoder; each
// decoder carries a shard hint so concurrent streams hit different padded
// slots. All counters are pure sinks — nothing in the decode path reads
// them — so fixed-seed results are bit-identical with metrics on or off,
// and every increment is a single atomic add (no allocation).
type streamObs struct {
	rounds          *obs.Counter // rounds ingested (flushed per window decode)
	erasedRounds    *obs.Counter // rounds lost on the link, synthesized empty
	shedRounds      *obs.Counter // rounds erased by backpressure
	windows         *obs.Counter // window decodes (sliding + final)
	w0Windows       *obs.Counter // zero-defect windows resolved by the weight-0 skip
	deferred        *obs.Counter // windows with defects whose decode committed nothing
	timeouts        *obs.Counter // deadline overruns (Eq. 4 p_tof numerator)
	degraded        *obs.Counter // one-layer degraded commits
	corrections     *obs.Counter // corrections committed
	backlogSheds    *obs.Counter // shedding episodes entered
	backlogRecovers *obs.Counter // shedding episodes closed

	windowDefects *obs.Histogram // defects per decoded window
	windowCostNS  *obs.Histogram // model decode cost per window (robust mode)
	queueLag      *obs.Histogram // backlog in arrival periods after each window (robust mode)

	// Lane-batching signals (Lanes): group formation and the
	// fast/gathered/ineligible split. laneWindows / (64 * laneGroups) is
	// the mean group fill fraction; laneFast / laneWindows the fraction of
	// batched windows resolved closed-form without a core decode.
	laneGroups     *obs.Counter // lane groups formed
	laneWindows    *obs.Counter // windows entering a lane group (any route)
	laneFast       *obs.Counter // lanes resolved by the closed-form fast path
	laneGathered   *obs.Counter // lanes scattered then routed to a full decode
	laneIneligible *obs.Counter // windows decoded in full without scattering (erased/W0-off)

	// engineParks counts Engine round handoffs that outlasted their spin
	// and parked: near 0 on dedicated cores in steady state, climbing when
	// a co-runner takes the cores the partitions spin on.
	engineParks *obs.Counter
}

func newStreamObs(reg *obs.Registry) *streamObs {
	const s = obs.DefaultShards
	return &streamObs{
		rounds:          reg.NewCounter("afs_stream_rounds_total", "syndrome rounds ingested by stream decoders", s),
		erasedRounds:    reg.NewCounter("afs_stream_erased_rounds_total", "rounds lost on the link and synthesized empty", s),
		shedRounds:      reg.NewCounter("afs_stream_shed_rounds_total", "rounds erased by backpressure shedding", s),
		windows:         reg.NewCounter("afs_stream_windows_total", "sliding-window decodes executed", s),
		w0Windows:       reg.NewCounter("afs_stream_w0_windows_total", "zero-defect windows resolved by the weight-0 skip (no decode)", s),
		deferred:        reg.NewCounter("afs_stream_window_deferred_total", "windows with defects whose decode committed nothing below the commit depth", s),
		timeouts:        reg.NewCounter("afs_stream_timeouts_total", "window decodes past the model deadline (p_tof numerator)", s),
		degraded:        reg.NewCounter("afs_stream_degraded_commits_total", "deadline overruns committed degraded (one layer)", s),
		corrections:     reg.NewCounter("afs_stream_corrections_total", "corrections committed across all streams", s),
		backlogSheds:    reg.NewCounter("afs_stream_backlog_sheds_total", "backlog shedding episodes entered", s),
		backlogRecovers: reg.NewCounter("afs_stream_backlog_recovers_total", "backlog shedding episodes closed (drained or stream reset)", s),
		laneGroups:      reg.NewCounter("afs_stream_lane_groups_total", "cross-stream lane groups formed by the lane batcher", s),
		laneWindows:     reg.NewCounter("afs_stream_lane_windows_total", "stream windows entering a lane group (fill = windows / (64*groups))", s),
		laneFast:        reg.NewCounter("afs_stream_lane_fast_total", "lane-batched windows resolved by the closed-form fast path", s),
		laneGathered:    reg.NewCounter("afs_stream_lane_gathered_total", "lane-batched windows gathered back to a full decode", s),
		laneIneligible:  reg.NewCounter("afs_stream_lane_ineligible_total", "lane-group windows decoded in full without scattering (erased, or held to the full route)", s),
		engineParks:     reg.NewCounter("afs_stream_engine_parks_total", "stream engine round handoffs that outlasted their spin and parked", s),
		windowDefects:   reg.NewHistogram("afs_stream_window_defects", "detection events per decoded window", 0, 64, 32, s),
		windowCostNS:    reg.NewHistogram("afs_stream_window_cost_ns", "model decode cost per window in ns (deadline mode)", 0, 800, 40, s),
		queueLag:        reg.NewHistogram("afs_stream_queue_lag_rounds", "decode backlog in arrival periods after each window (deadline mode)", 0, 32, 32, s),
	}
}

// registeredObs is the sink registered on the default registry; obsSink is
// what new decoders capture. Only tests swap it (to nil, for decoders
// built without metrics).
var (
	registeredObs = newStreamObs(obs.Default())
	obsSink       atomic.Pointer[streamObs]
	obsShardSeq   atomic.Uint32
)

func init() {
	obsSink.Store(registeredObs)
	reg := obs.Default()
	reg.RegisterGauge("afs_stream_p_timeout", "timeouts_total / windows_total (empirical p_tof)", func() float64 {
		w := registeredObs.windows.Value()
		if w == 0 {
			return 0
		}
		return float64(registeredObs.timeouts.Value()) / float64(w)
	})
	reg.RegisterGauge("afs_stream_backlog_open_episodes", "shedding episodes currently open across the fleet", func() float64 {
		return float64(registeredObs.backlogSheds.Value() - registeredObs.backlogRecovers.Value())
	})
}

// nextObsShard spreads decoders over the metric shards.
func nextObsShard() int { return int(obsShardSeq.Add(1) - 1) }
