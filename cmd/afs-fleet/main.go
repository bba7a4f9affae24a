// Command afs-fleet runs the sharded decode fleet: one router process
// assigning logical-qubit streams to N decode-shard processes over Unix or
// TCP sockets, with crash recovery that keeps corrections bit-identical to
// an uninterrupted in-process run.
//
// Shard mode serves decode streams on a socket:
//
//	afs-fleet -mode shard -network unix -listen /tmp/shard0.sock -blocks 0
//
// Soak mode is the chaos harness: it spawns -shards shard subprocesses of
// itself, routes -streams seeded syndrome streams across them, kill -9's a
// shard mid-soak (optionally restarting it and rebalancing), flushes, and
// verifies every committed correction against an in-process stream engine
// run under the same seeds. It exits non-zero if a single correction or
// ledger entry differs.
//
//	afs-fleet -mode soak -shards 3 -streams 1000 -rounds 300 -kill-round 120
//	afs-fleet -mode soak -chaos -drop 0.01 -stall 0.05 -deadline 600 -queuecap 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"time"

	"afs/internal/bandwidth"
	"afs/internal/compress"
	"afs/internal/faults"
	"afs/internal/fleet"
	"afs/internal/noise"
	"afs/internal/stream"
)

func main() {
	var (
		mode = flag.String("mode", "soak", "shard (serve decode streams) or soak (spawn a fleet and verify it)")

		// Shard mode.
		network   = flag.String("network", "unix", "socket family: unix or tcp")
		listen    = flag.String("listen", "", "shard: address to serve on")
		blocks    = flag.Int("blocks", 0, "shard: CDA blocks provisioned (0 = unlimited admission)")
		ckptEvery = flag.Int("ckpt-every", 0, "shard: checkpoint cadence in rounds (0 = default)")

		// Soak mode.
		shards    = flag.Int("shards", 3, "soak: shard processes to spawn")
		streams   = flag.Int("streams", 1000, "soak: logical-qubit streams")
		d         = flag.Int("d", 5, "code distance")
		p         = flag.Float64("p", 0.01, "physical error rate per round")
		rounds    = flag.Int("rounds", 300, "soak: syndrome rounds per stream")
		seed      = flag.Uint64("seed", 1, "noise seed (chaos derives per-stream seeds from -chaos-seed)")
		killRound = flag.Int("kill-round", 0, "soak: kill -9 a shard after this round (0 = no kill)")
		killShard = flag.Int("kill-shard", 1, "soak: which shard index to kill")
		restart   = flag.Bool("restart", false, "soak: restart the killed shard and rebalance onto it")
		out       = flag.String("out", "", "soak: write the bench JSON here (default stdout only)")
		corpusDir = flag.String("corpus-dir", "", "soak: also write captured round frames as fuzz corpus files here")

		chaos     = flag.Bool("chaos", false, "soak: inject link faults on every stream")
		chaosSeed = flag.Uint64("chaos-seed", 99, "soak: chaos base seed")
		drop      = flag.Float64("drop", 0.02, "chaos: per-round drop probability")
		dup       = flag.Float64("dup", 0.01, "chaos: per-round duplicate probability")
		reorder   = flag.Float64("reorder", 0.01, "chaos: per-round reorder probability")
		corrupt   = flag.Float64("corrupt", 0.02, "chaos: per-round bit-flip probability")
		stall     = flag.Float64("stall", 0.05, "chaos: per-round decoder-stall probability")
		deadline  = flag.Float64("deadline", 0, "per-window decode deadline in model ns (0 = off)")
		queueCap  = flag.Int("queuecap", 0, "decode backlog bound in rounds (0 = off)")
	)
	flag.Parse()

	switch *mode {
	case "shard":
		if *listen == "" {
			fatalf("shard mode needs -listen")
		}
		ln, err := net.Listen(*network, *listen)
		if err != nil {
			fatalf("%v", err)
		}
		err = fleet.Serve(ln, fleet.ShardConfig{
			Blocks:          *blocks,
			CheckpointEvery: *ckptEvery,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "shard %s: "+format+"\n", append([]any{*listen}, args...)...)
			},
		})
		fatalf("%v", err)
	case "soak":
		var fc *faults.Config
		if *chaos {
			fc = &faults.Config{
				Seed: *chaosSeed, DropRate: *drop, DuplicateRate: *dup,
				ReorderRate: *reorder, CorruptRate: *corrupt, StallRate: *stall,
			}
		}
		if err := soak(soakConfig{
			network: *network, shards: *shards, streams: *streams,
			d: *d, p: *p, rounds: *rounds, seed: *seed,
			killRound: *killRound, killShard: *killShard, restart: *restart,
			chaos: fc, deadline: *deadline, queueCap: *queueCap,
			out: *out, corpusDir: *corpusDir,
		}); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown -mode %q", *mode)
	}
}

type soakConfig struct {
	network         string
	shards, streams int
	d               int
	p               float64
	rounds          int
	seed            uint64
	killRound       int
	killShard       int
	restart         bool
	chaos           *faults.Config
	deadline        float64
	queueCap        int
	out, corpusDir  string
}

// benchOut is the soak's JSON record: the fleet's sustained decode rate,
// the failover recovery cost, the wire efficiency against the raw syndrome
// bandwidth of §VII, and the closing fault ledger.
type benchOut struct {
	BenchVersion int    `json:"bench_version"`
	GeneratedBy  string `json:"generated_by"`
	Fleet        struct {
		Shards         int     `json:"shards"`
		Streams        int     `json:"streams"`
		Distance       int     `json:"d"`
		P              float64 `json:"p"`
		Rounds         int     `json:"rounds"`
		Chaos          bool    `json:"chaos"`
		KilledShard    *int    `json:"killed_shard,omitempty"`
		Restarted      bool    `json:"restarted,omitempty"`
		WallSeconds    float64 `json:"wall_seconds"`
		RoundsPerSec   float64 `json:"stream_rounds_per_sec"`
		Recoveries     int     `json:"recoveries"`
		RecoveryMS     float64 `json:"failover_recovery_ms,omitempty"`
		ReplayedRounds int     `json:"replayed_rounds,omitempty"`
		WireTxBytes    uint64  `json:"wire_tx_bytes"`
		WireRxBytes    uint64  `json:"wire_rx_bytes"`
		WireBytesRound float64 `json:"wire_tx_bytes_per_stream_round"`
		RawBitsRound   int64   `json:"raw_syndrome_bits_per_round"`
		RequiredGbps   float64 `json:"raw_required_gbps_at_1us"`
		Corrections    uint64  `json:"corrections"`
		PTimeout       float64 `json:"p_timeout"`
		IdentityOK     bool    `json:"identity_ok"`
		LedgerOK       bool    `json:"ledger_ok"`
	} `json:"fleet"`
}

func soak(cfg soakConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "afs-fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Spawn the shard processes and wait for their sockets to accept.
	addrs := make([]string, cfg.shards)
	procs := make([]*exec.Cmd, cfg.shards)
	spawn := func(i int) error {
		addr := filepath.Join(dir, fmt.Sprintf("shard%d.sock", i))
		if cfg.network == "tcp" {
			addr = fmt.Sprintf("127.0.0.1:%d", 19300+i)
		}
		os.Remove(addr)
		cmd := exec.Command(self, "-mode", "shard", "-network", cfg.network, "-listen", addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		addrs[i], procs[i] = addr, cmd
		for t := 0; ; t++ {
			c, err := net.DialTimeout(cfg.network, addr, 100*time.Millisecond)
			if err == nil {
				c.Close()
				return nil
			}
			if t > 100 {
				return fmt.Errorf("shard %d never came up on %s: %v", i, addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for i := 0; i < cfg.shards; i++ {
		if err := spawn(i); err != nil {
			return err
		}
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	// The in-process reference: same streams, same seeds, same chaos.
	fmt.Fprintf(os.Stderr, "afs-fleet: reference run (%d streams x %d rounds, in-process)\n", cfg.streams, cfg.rounds)
	eng, err := stream.NewEngine(stream.EngineConfig{
		Streams: cfg.streams, Distance: cfg.d,
		Robust: stream.Robust{DeadlineNS: cfg.deadline, QueueCap: cfg.queueCap},
		Chaos:  cfg.chaos,
	})
	if err != nil {
		return err
	}
	if err := eng.RunRounds(cfg.rounds, feedFrom(cfg.streams, cfg.d, cfg.p, cfg.seed)); err != nil {
		return err
	}
	if err := eng.Flush(); err != nil {
		return err
	}

	// The fleet run, with optional frame capture for the compress fuzz
	// corpus and a kill -9 at the configured round.
	feed := feedFrom(cfg.streams, cfg.d, cfg.p, cfg.seed)
	if cfg.corpusDir != "" {
		feed = captureFrames(feed, cfg.d*(cfg.d-1), cfg.corpusDir)
	}
	// The reference engine above groups lanes by worker chunk and the
	// shards by round envelope, so the identity check below doubles as an
	// end-to-end proof that the two groupings agree.
	r, err := fleet.Dial(fleet.Config{
		Network: cfg.network, Shards: addrs,
		Streams: cfg.streams, Distance: cfg.d,
		DeadlineNS: cfg.deadline, QueueCap: cfg.queueCap,
		Chaos: cfg.chaos,
	})
	if err != nil {
		return err
	}
	defer r.Close()

	start := time.Now()
	run := func(n int) error {
		fmt.Fprintf(os.Stderr, "afs-fleet: routing %d rounds\n", n)
		return r.RunRounds(n, feed)
	}
	left := cfg.rounds
	var killed *int
	if cfg.killRound > 0 && cfg.killRound < cfg.rounds && cfg.killShard >= 0 && cfg.killShard < cfg.shards {
		if err := run(cfg.killRound); err != nil {
			return err
		}
		left -= cfg.killRound
		k := cfg.killShard
		killed = &k
		fmt.Fprintf(os.Stderr, "afs-fleet: kill -9 shard %d (%s)\n", k, addrs[k])
		procs[k].Process.Kill() // SIGKILL: no shutdown, no flush, state gone
		procs[k].Wait()
		procs[k] = nil
		if cfg.restart {
			// Let the failover land first, then bring the shard back and
			// rebalance its streams home.
			half := left / 2
			if err := run(half); err != nil {
				return err
			}
			left -= half
			fmt.Fprintf(os.Stderr, "afs-fleet: restarting shard %d\n", k)
			if err := spawn(k); err != nil {
				return err
			}
			if err := r.Rebalance(); err != nil {
				return err
			}
		}
	}
	if err := run(left); err != nil {
		return err
	}
	if err := r.Flush(); err != nil {
		return err
	}
	wall := time.Since(start)

	// Verification: every correction and every per-stream ledger must match
	// the in-process engine bit for bit, and the merged fault ledger must
	// close its identities.
	mismatches := 0
	for i := 0; i < cfg.streams; i++ {
		if !reflect.DeepEqual(r.Committed(i), eng.Committed(i)) {
			mismatches++
			if mismatches <= 5 {
				fmt.Fprintf(os.Stderr, "afs-fleet: stream %d corrections diverge (%d vs %d)\n",
					i, len(r.Committed(i)), len(eng.Committed(i)))
			}
		}
		if !reflect.DeepEqual(r.StreamReport(i), eng.StreamReport(i)) {
			mismatches++
			if mismatches <= 5 {
				fmt.Fprintf(os.Stderr, "afs-fleet: stream %d ledger diverges\n", i)
			}
		}
	}
	rep := r.FaultReport()
	ledgerErr := rep.CheckFinal()

	var b benchOut
	b.BenchVersion = 8
	b.GeneratedBy = "cmd/afs-fleet"
	f := &b.Fleet
	f.Shards, f.Streams, f.Distance, f.P, f.Rounds = cfg.shards, cfg.streams, cfg.d, cfg.p, cfg.rounds
	f.Chaos = cfg.chaos != nil
	f.KilledShard, f.Restarted = killed, cfg.restart
	f.WallSeconds = wall.Seconds()
	f.RoundsPerSec = float64(cfg.streams) * float64(cfg.rounds) / wall.Seconds()
	f.Recoveries = r.Recoveries()
	if rec := r.LastRecovery(); r.Recoveries() > 0 {
		f.RecoveryMS = float64(rec.Duration.Microseconds()) / 1e3
		f.ReplayedRounds = rec.ReplayedRounds
	}
	f.WireTxBytes, f.WireRxBytes = r.WireBytes()
	f.WireBytesRound = float64(f.WireTxBytes) / (float64(cfg.streams) * float64(cfg.rounds))
	f.RawBitsRound = bandwidth.BitsPerRound(cfg.streams, cfg.d)
	f.RequiredGbps = bandwidth.RequiredGbps(cfg.streams, cfg.d, 1000)
	f.Corrections = eng.TotalCorrections()
	f.PTimeout = rep.PTimeout()
	f.IdentityOK = mismatches == 0
	f.LedgerOK = ledgerErr == nil

	blob, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	os.Stdout.Write(blob)
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, blob, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "afs-fleet: ledger: %v\n", rep)
	if ledgerErr != nil {
		return fmt.Errorf("fault ledger does not close: %v", ledgerErr)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d streams diverge from the in-process engine", mismatches)
	}
	fmt.Fprintf(os.Stderr, "afs-fleet: OK — %d streams bit-identical across %d shards\n", cfg.streams, cfg.shards)
	return nil
}

// feedFrom builds a per-stream seeded round feed, identical for the fleet
// and its in-process reference.
func feedFrom(streams, distance int, p float64, seed uint64) func(int, int) []int32 {
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(distance, p, seed, uint64(i)+1)
	}
	return func(i, _ int) []int32 { return samplers[i].SampleRound() }
}

// captureFrames wraps a feed so the soak also emits a sample of the round
// frames it generates as go-fuzz corpus files for compress.FuzzRoundFrame —
// real fleet traffic (sparse rounds, dense rounds, empty rounds) seeding
// the fuzzer's exploration of the §VII wire format.
func captureFrames(feed func(int, int) []int32, per int, dir string) func(int, int) []int32 {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	written := map[int]bool{}
	return func(i, round int) []int32 {
		events := feed(i, round)
		// One frame per event-count class keeps the corpus small but shape-
		// diverse: the empty round, singles, and every density the soak hits.
		if !written[len(events)] {
			written[len(events)] = true
			frame := compress.AppendRoundFrame(nil, uint32(round), events, per)
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint(%d)\n", frame, per)
			name := filepath.Join(dir, fmt.Sprintf("fleet-soak-w%d", len(events)))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				fatalf("%v", err)
			}
		}
		return events
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "afs-fleet: "+format+"\n", args...)
	os.Exit(1)
}
