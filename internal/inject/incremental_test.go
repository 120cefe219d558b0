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

// TestIncrementalMatchesFullReplay is the white-box equivalence check
// behind the campaign's incremental default: suffix replay and full
// replay must produce deeply equal Outcomes on classifier and regressor
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
		run := func(mode IncrementalMode, workers int) Outcome {
			c := &Campaign{Model: tc.m, Trials: 18, Seed: 99, Workers: workers, Incremental: mode}
			out, err := c.Run(context.Background(), tc.feeds)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return out
		}
		want := run(IncrementalOff, 1)
		for _, workers := range []int{1, 2, 0} {
			if got := run(IncrementalOn, workers); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: incremental %+v != full %+v", tc.name, workers, got, want)
			}
		}
	}
}

// TestReferenceNotClobberedAcrossInputs is the regression test for the
// fp32/int8 reference asymmetry: on both backends, in both replay
// modes, the reference returned by prepare for input 0 must keep its
// bits after input 1's clean pass reuses the backend's state.
func TestReferenceNotClobberedAcrossInputs(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	calib := lenetCalibration(t, m, feeds)
	cases := []struct {
		name string
		c    *Campaign
	}{
		{"fp32-incremental", &Campaign{Model: m, Trials: 1, Seed: 1}},
		{"fp32-full", &Campaign{Model: m, Trials: 1, Seed: 1, Incremental: IncrementalOff}},
		{"int8-incremental", &Campaign{Model: m, Trials: 1, Seed: 1, Scenario: BitFlipInt8{Flips: 1}, Calibration: calib}},
		{"int8-full", &Campaign{Model: m, Trials: 1, Seed: 1, Scenario: BitFlipInt8{Flips: 1}, Calibration: calib, Incremental: IncrementalOff}},
	}
	for _, tc := range cases {
		exec, err := tc.c.newExec()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref0, err := exec.prepare(feeds[0])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := append([]float32{}, ref0.Data()...)
		if _, err := exec.prepare(feeds[1]); err != nil {
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
			Scenario: BitFlipInt8{Flips: 1}, Calibration: calib}
	})
}

// checkTrialZeroAlloc warms one incremental trial runner per fault space
// (the last three corruptible nodes, then every one) over a fixed trial
// set and fails if a steady-state trial plus its judgement allocates.
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
		exec, err := c.newExec()
		if err != nil {
			t.Fatal(err)
		}
		fs, err := buildFaultSpace(m, feeds[0], nil, space.targets)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := exec.prepare(feeds[0])
		if err != nil {
			t.Fatal(err)
		}
		run := exec.newTrial(feeds[0], fs).run
		const trials = 64
		for trial := 0; trial < trials; trial++ {
			if _, err := run(0, trial); err != nil {
				t.Fatal(err)
			}
		}
		trial := 0
		avg := testing.AllocsPerRun(trials-1, func() {
			faulty, err := run(0, trial%trials)
			if err != nil {
				t.Fatal(err)
			}
			c.judgeTrial(ref, faulty)
			trial++
		})
		if avg != 0 {
			t.Errorf("%s fault space: incremental trial loop allocates %.2f allocs/trial in steady state, want 0", space.name, avg)
		}
	}
}

// TestIncrementalLaneBatchedZeroAlloc extends the zero-alloc gate to the
// lane-batched hot path: once the worker's LaneReplay for a width is
// warm, a B-trial batched chunk — reseed and sample B streams, one
// batched suffix replay with per-lane in-place corruption, B per-lane
// judgements — must not allocate at all. Allocations therefore cannot
// scale with B. Run without -race (instrumentation allocates).
func TestIncrementalLaneBatchedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	m, feeds := lenetInputs(t, 1)
	late := lateCorruptibleNodes(t, m, 3)
	const lanes = 4
	c := &Campaign{Model: m, Trials: 1, Seed: 9, TargetNodes: late, LaneWidth: lanes}
	exec, err := c.newExec()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := buildFaultSpace(m, feeds[0], nil, late)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.prepare(feeds[0])
	if err != nil {
		t.Fatal(err)
	}
	tr := exec.newTrial(feeds[0], fs)
	if tr.runLanes == nil {
		t.Fatal("incremental trial runner has no lane-batched path")
	}
	// Chunks of a fixed width keep the worker's LaneReplay, batched
	// buffers, and sampling state shapes stable across iterations.
	const chunks = 16
	trials := make([]int, lanes)
	runChunk := func(chunk int) {
		for l := range trials {
			trials[l] = chunk*lanes + l
		}
		batched, err := tr.runLanes(0, trials)
		if err != nil {
			t.Fatal(err)
		}
		data := batched.Data()
		laneSize := len(data) / lanes
		for l := 0; l < lanes; l++ {
			c.judgeData(ref, data[l*laneSize:(l+1)*laneSize])
		}
	}
	for chunk := 0; chunk < chunks; chunk++ {
		runChunk(chunk)
	}
	chunk := 0
	avg := testing.AllocsPerRun(chunks-1, func() {
		runChunk(chunk % chunks)
		chunk++
	})
	if avg != 0 {
		t.Fatalf("lane-batched chunk allocates %.2f allocs/chunk in steady state, want 0", avg)
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
// Outcome matches the ungrouped full replay.
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
	full := &Campaign{Model: m, Trials: 30, Seed: 5, Workers: 3, Incremental: IncrementalOff}
	want, err := full.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("depth-grouped outcome %+v != full-replay %+v", got, want)
	}
}
