package inject

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ranger/internal/data"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/parallel"
	"ranger/internal/tensor"
)

// silentDetector observes every node and never fires, so a detector
// campaign's embedded Outcome is exactly the plain campaign's.
type silentDetector struct{}

func (silentDetector) Name() string                        { return "silent" }
func (silentDetector) Reset()                              {}
func (silentDetector) Observe(*graph.Node, *tensor.Tensor) {}
func (silentDetector) Detected() bool                      { return false }
func (silentDetector) CloneDetector() Detector             { return silentDetector{} }

// fullReplayOutcome runs c with a never-firing detector attached: every
// trial then replays the whole observe-all plan from step 0, the
// reference the suffix-replay campaign must match.
func fullReplayOutcome(t *testing.T, c *Campaign, feeds []graph.Feeds) Outcome {
	t.Helper()
	dc := *c
	dc.Detector = silentDetector{}
	out, err := dc.RunWithDetector(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	return out.Outcome
}

// TestIncrementalMatchesFullReplay is the white-box equivalence check
// behind suffix replay: a campaign must produce an Outcome deeply equal
// to the detector path's full replay, on classifier and regressor
// campaigns at several worker counts. (The root campaign_golden_test.go
// sweeps the whole zoo on both backends.)
func TestIncrementalMatchesFullReplay(t *testing.T) {
	lenet, lenetFeeds := lenetInputs(t, 2)
	comma, err := models.Build("comma")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDriving()
	commaFeeds := []graph.Feeds{
		{comma.Input: ds.Sample(data.Train, 0).X},
		{comma.Input: ds.Sample(data.Train, 1).X},
	}
	cases := []struct {
		name  string
		m     *models.Model
		feeds []graph.Feeds
	}{
		{"classifier", lenet, lenetFeeds},
		{"regressor", comma, commaFeeds},
	}
	for _, tc := range cases {
		want := fullReplayOutcome(t, &Campaign{Model: tc.m, Trials: 18, Seed: 99, Workers: 1}, tc.feeds)
		for _, workers := range []int{1, 2, 0} {
			c := &Campaign{Model: tc.m, Trials: 18, Seed: 99, Workers: workers}
			got, err := c.Run(context.Background(), tc.feeds)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: incremental %+v != full %+v", tc.name, workers, got, want)
			}
		}
	}
}

// TestReferenceNotClobberedAcrossInputs is the regression test for the
// fp32/int8 reference asymmetry: on both backends the reference returned by prepare for input 0 must keep its
// bits after input 1's clean pass reuses the backend's state.
func TestReferenceNotClobberedAcrossInputs(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	calib := lenetCalibration(t, m, feeds)
	cases := []struct {
		name string
		c    *Campaign
	}{
		{"fp32", &Campaign{Model: m, Trials: 1, Seed: 1}},
		{"int8", &Campaign{Model: m, Trials: 1, Seed: 1, Scenario: BitFlips{Flips: 1}, Calibration: calib}},
	}
	for _, tc := range cases {
		b, err := tc.c.newBackend(feeds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := b.checkpoint(nil, feeds[0]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref0 := b.refs[0]
		want := append([]float32{}, ref0.Data()...)
		if err := b.checkpoint(nil, feeds[1]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, v := range ref0.Data() {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("%s: input-0 reference clobbered at element %d: %g != %g", tc.name, i, v, want[i])
			}
		}
		// A 2-input campaign over the same backend must also succeed.
		if _, err := tc.c.Run(context.Background(), feeds); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestIncrementalTrialZeroAlloc is the allocs/trial regression gate: in
// the steady state (buffers warmed over the same trial set), one fp32
// incremental trial — reseed, sample, suffix replay with in-place
// corruption, judge — must not allocate at all, over a late-layer fault
// space (the common selective-injection shape) and over lenet's full
// fault space, whose suffixes replay the conv and pooling steps. Run
// without -race (instrumentation allocates).
func TestIncrementalTrialZeroAlloc(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	checkTrialZeroAlloc(t, m, feeds, func(targets []string) *Campaign {
		return &Campaign{Model: m, Trials: 1, Seed: 9, TargetNodes: targets}
	})
}

// TestIncrementalTrialZeroAllocInt8 is the int8 counterpart of
// TestIncrementalTrialZeroAlloc: a steady-state BitFlipInt8 trial on the
// quantized plan must not allocate, on the late and the full fault
// space.
func TestIncrementalTrialZeroAllocInt8(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	calib := lenetCalibration(t, m, feeds)
	checkTrialZeroAlloc(t, m, feeds, func(targets []string) *Campaign {
		return &Campaign{Model: m, Trials: 1, Seed: 9, TargetNodes: targets,
			Scenario: BitFlips{Flips: 1}, Calibration: calib}
	})
}

// checkTrialZeroAlloc warms one trial worker per fault space (the last
// three corruptible nodes, then every one) over a fixed trial set and
// fails if a steady-state trial — draw, plant, replay, judge, scrub —
// allocates.
func checkTrialZeroAlloc(t *testing.T, m *models.Model, feeds []graph.Feeds, campaign func(targets []string) *Campaign) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Force every nested kernel shard inline so goroutine spawns don't
	// count as trial allocations.
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	for _, space := range []struct {
		name    string
		targets []string
	}{
		{"late", lateCorruptibleNodes(t, m, 3)},
		{"full", nil},
	} {
		c := campaign(space.targets)
		b, err := c.newBackend(feeds)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.prepareInput(0); err != nil {
			t.Fatal(err)
		}
		sw := b.newSlotWorker()
		run := func(trial int) {
			if _, err := b.runTrial(sw, slot{seed: trialSeed(c.Seed, 0, trial)}); err != nil {
				t.Fatal(err)
			}
		}
		const trials = 64
		for trial := 0; trial < trials; trial++ {
			run(trial)
		}
		trial := 0
		avg := testing.AllocsPerRun(trials-1, func() {
			run(trial % trials)
			trial++
		})
		if avg != 0 {
			t.Errorf("%s fault space: incremental trial loop allocates %.2f allocs/trial in steady state, want 0", space.name, avg)
		}
	}
}

// lateCorruptibleNodes returns the last n corruptible node names of the
// model — a late-layer fault space.
func lateCorruptibleNodes(t *testing.T, m *models.Model, n int) []string {
	t.Helper()
	names := CorruptibleNodes(m, nil, nil)
	if len(names) < n {
		t.Fatalf("only %d corruptible nodes", len(names))
	}
	return names[len(names)-n:]
}

// TestTop5ContainsMatchesTopK pins the allocation-free top-5 membership
// check against the reference TopK implementation, including ties, NaN
// and ±Inf scores (an exponent-bit flip can push a logit to ±Inf), and
// short vectors.
func TestTop5ContainsMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(12)
		data := make([]float32, n)
		for i := range data {
			switch rng.Intn(8) {
			case 0:
				data[i] = float32(math.NaN())
			case 1:
				data[i] = float32(rng.Intn(3)) // force ties
			case 2:
				data[i] = float32(math.Inf(-1))
			case 3:
				data[i] = float32(math.Inf(1))
			default:
				data[i] = rng.Float32()
			}
		}
		ref := tensor.MustFromSlice(append([]float32{}, data...), n)
		c := rng.Intn(n)
		inTop5 := false
		for _, l := range ref.TopK(5) {
			if l == c {
				inTop5 = true
				break
			}
		}
		if got := top5Contains(data, c); got != inTop5 {
			t.Fatalf("data=%v c=%d: top5Contains=%v, TopK says %v", data, c, got, inTop5)
		}
	}
}

// TestArgmaxDataMatchesTensor pins the allocation-free raw-slice argmax
// against tensor.ArgMax, including ties, NaN and ±Inf scores, and
// NaN-only vectors (both must yield index 0).
func TestArgmaxDataMatchesTensor(t *testing.T) {
	if got := argmaxData([]float32{float32(math.NaN()), float32(math.NaN())}); got != 0 {
		t.Fatalf("NaN-only argmax = %d, want 0", got)
	}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(12)
		data := make([]float32, n)
		for i := range data {
			switch rng.Intn(8) {
			case 0:
				data[i] = float32(math.NaN())
			case 1:
				data[i] = float32(rng.Intn(3)) // force ties
			case 2:
				data[i] = float32(math.Inf(-1))
			case 3:
				data[i] = float32(math.Inf(1))
			default:
				data[i] = rng.Float32()
			}
		}
		want := tensor.MustFromSlice(append([]float32{}, data...), n).ArgMax()
		if got := argmaxData(data); got != want {
			t.Fatalf("data=%v: argmaxData=%d, ArgMax says %d", data, got, want)
		}
	}
}

// TestDepthOrderKeepsOutcomeAndStreamsAllTrials checks the depth-grouped
// schedule end to end: every trial index streams exactly once and the
// Outcome matches the detector path's full replay.
func TestDepthOrderKeepsOutcomeAndStreamsAllTrials(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	seen := make(map[int]int)
	c := &Campaign{Model: m, Trials: 30, Seed: 5, Workers: 3, OnTrial: func(tr TrialResult) {
		seen[tr.Trial]++
	}}
	got, err := c.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 30 {
		t.Fatalf("streamed %d distinct trials, want 30", len(seen))
	}
	for trial, n := range seen {
		if n != 1 {
			t.Fatalf("trial %d streamed %d times", trial, n)
		}
	}
	want := fullReplayOutcome(t, &Campaign{Model: m, Trials: 30, Seed: 5, Workers: 3}, feeds)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("depth-grouped outcome %+v != full-replay %+v", got, want)
	}
}

// TestTrialMaskedMatchesFullReplay cross-checks the streamed per-trial
// Masked flag and verdicts of cone replay against full replay. On fp32,
// Run (cone replay) must agree trial by trial with RunWithDetector
// under a never-firing detector (every trial replayed from step 0,
// Masked from a bit comparison with the reference); on int8, with a
// test-side RunFrom loop over the same sampled sites. Every masked
// trial must be judged benign, and ReplayStart must be the trial's
// earliest struck step (0 on the detector path).
func TestTrialMaskedMatchesFullReplay(t *testing.T) {
	ctx := context.Background()
	type key struct{ input, trial int }
	record := func(c *Campaign) map[key]TrialResult {
		got := make(map[key]TrialResult)
		c.OnTrial = func(tr TrialResult) { got[key{tr.Input, tr.Trial}] = tr }
		return got
	}
	checkMasked := func(t *testing.T, tr TrialResult) {
		t.Helper()
		if tr.Masked && (tr.Top1SDC || tr.Top5SDC || tr.Deviation != 0) {
			t.Fatalf("trial %+v is masked but judged an SDC", tr)
		}
	}
	sameVerdict := func(a, b TrialResult) bool {
		return a.Masked == b.Masked && a.Top1SDC == b.Top1SDC && a.Top5SDC == b.Top5SDC &&
			math.Float64bits(a.Deviation) == math.Float64bits(b.Deviation)
	}

	lenet, lenetFeeds := lenetInputs(t, 2)
	squeeze, err := models.Build("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	imnet := data.NewImNet()
	squeezeFeeds := []graph.Feeds{
		{squeeze.Input: imnet.Sample(data.Train, 0).X},
		{squeeze.Input: imnet.Sample(data.Train, 1).X},
	}
	for _, tc := range []struct {
		m     *models.Model
		feeds []graph.Feeds
	}{{lenet, lenetFeeds}, {squeeze, squeezeFeeds}} {
		t.Run(tc.m.Name+"/fp32", func(t *testing.T) {
			cone := &Campaign{Model: tc.m, Trials: 40, Seed: 11}
			coneTrials := record(cone)
			if _, err := cone.Run(ctx, tc.feeds); err != nil {
				t.Fatal(err)
			}
			full := &Campaign{Model: tc.m, Trials: 40, Seed: 11, Detector: silentDetector{}}
			fullTrials := record(full)
			if _, err := full.RunWithDetector(ctx, tc.feeds); err != nil {
				t.Fatal(err)
			}
			b, err := cone.newBackend(tc.feeds)
			if err != nil {
				t.Fatal(err)
			}
			masked := 0
			for ii, feeds := range tc.feeds {
				if b.space, err = cone.faultSpace(b.plan, feeds); err != nil {
					t.Fatal(err)
				}
				sw := b.newSlotWorker()
				for trial := 0; trial < cone.Trials; trial++ {
					k := key{ii, trial}
					c, f := coneTrials[k], fullTrials[k]
					if !sameVerdict(c, f) {
						t.Fatalf("trial %v: cone %+v, full replay %+v", k, c, f)
					}
					if f.ReplayStart != 0 {
						t.Fatalf("trial %v: detector trial replayed from step %d", k, f.ReplayStart)
					}
					want, _ := sw.plant(sw.draw(trialSeed(cone.Seed, ii, trial), nil))
					sw.scrub()
					if c.ReplayStart != want {
						t.Fatalf("trial %v: ReplayStart %d, earliest struck step %d", k, c.ReplayStart, want)
					}
					checkMasked(t, c)
					if c.Masked {
						masked++
					}
				}
			}
			if n := len(tc.feeds) * cone.Trials; masked == 0 || masked == n {
				t.Fatalf("%d of %d trials masked; want both outcomes", masked, n)
			}
		})
	}

	t.Run("lenet/int8", func(t *testing.T) {
		calib := lenetCalibration(t, lenet, lenetFeeds)
		c := &Campaign{Model: lenet, Trials: 40, Seed: 11, Scenario: BitFlips{Flips: 1}, Calibration: calib}
		coneTrials := record(c)
		if _, err := c.Run(ctx, lenetFeeds); err != nil {
			t.Fatal(err)
		}
		b, err := c.newBackend(lenetFeeds)
		if err != nil {
			t.Fatal(err)
		}
		qp, scen := b.qp, c.scenario()
		st := qp.NewState()
		masked := 0
		for ii, feeds := range lenetFeeds {
			if b.space, err = c.faultSpace(b.plan, feeds); err != nil {
				t.Fatal(err)
			}
			ck, err := qp.Checkpoint(qp.NewState(), feeds)
			if err != nil {
				t.Fatal(err)
			}
			sw, ts := b.newSlotWorker(), newStruckSites(qp.StepOf, qp.Steps())
			hook := func(n *graph.Node, out *tensor.QTensor) *tensor.QTensor {
				d := out.Data()
				for _, s := range ts.byNode[n.Name()] {
					q, err := corruptInt8(scen, d[s.Elem], s)
					if err != nil {
						t.Fatal(err)
					}
					d[s.Elem] = q
				}
				return nil
			}
			for trial := 0; trial < c.Trials; trial++ {
				depth := ts.plant(sw.draw(trialSeed(c.Seed, ii, trial), nil))
				outs, err := qp.RunFrom(st, ck, depth, hook)
				if err != nil {
					t.Fatal(err)
				}
				v := c.judgeData(ck.Output(0), outs[0].Data())
				v.start, v.masked = depth, bitsEqual(outs[0].Data(), ck.Output(0).Data())
				want, got := v.result(slot{input: ii, trial: trial}), coneTrials[key{ii, trial}]
				if !sameVerdict(want, got) || want.ReplayStart != got.ReplayStart {
					t.Fatalf("trial %d/%d: cone %+v, suffix replay %+v", ii, trial, got, want)
				}
				checkMasked(t, got)
				if got.Masked {
					masked++
				}
			}
		}
		if n := len(lenetFeeds) * c.Trials; masked == 0 || masked == n {
			t.Fatalf("%d of %d int8 trials masked; want both outcomes", masked, n)
		}
	})
}
