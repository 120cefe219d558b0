package inject

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/fixpoint"
	"ranger/internal/graph"
	"ranger/internal/models"
	"ranger/internal/ops"
)

// untrained lenet is enough for mechanics tests; SDC-rate shape tests use
// the trained zoo in the experiments package.
func lenetInputs(t *testing.T, n int) (*models.Model, []graph.Feeds) {
	t.Helper()
	m, err := models.Build("lenet")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDigits()
	feeds := make([]graph.Feeds, n)
	for i := range feeds {
		s := ds.Sample(data.Train, i)
		feeds[i] = graph.Feeds{m.Input: s.X}
	}
	return m, feeds
}

func TestCampaignValidation(t *testing.T) {
	ctx := context.Background()
	m, feeds := lenetInputs(t, 1)
	if _, err := (&Campaign{Model: m, Trials: 0}).Run(ctx, feeds); err == nil {
		t.Fatal("want trials error")
	}
	if _, err := (&Campaign{Model: m, Scenario: BitFlips{}, Trials: 1}).Run(ctx, feeds); err == nil {
		t.Fatal("want scenario validation error")
	}
	if _, err := (&Campaign{Model: m, Trials: 1}).Run(ctx, nil); err == nil {
		t.Fatal("want inputs error")
	}
}

// TestCampaignRejectsSettingsOutsideItsMode: a campaign's own fields
// select its mode, each entry point runs only its own mode, and a
// setting the mode does not apply is rejected instead of ignored. The
// accepted rows are the campaign shapes the benchmark, the experiments,
// the baselines, rangerd and rangerinject build; each must still run.
func TestCampaignRejectsSettingsOutsideItsMode(t *testing.T) {
	ctx := context.Background()
	m, feeds := lenetInputs(t, 1)
	calib := lenetCalibration(t, m, feeds)
	nodes := CorruptibleNodes(m, nil, nil)
	late := nodes[len(nodes)-len(nodes)/3:]
	var all []string
	for _, n := range m.Graph.Nodes() {
		all = append(all, n.Name())
	}
	entries := map[string]func(c *Campaign) error{
		"Run":                   func(c *Campaign) (err error) { _, err = c.Run(ctx, feeds); return },
		"RunSlice":              func(c *Campaign) (err error) { _, err = c.RunSlice(ctx, feeds, 0, 1); return },
		"RunWithDetector":       func(c *Campaign) (err error) { _, err = c.RunWithDetector(ctx, feeds); return },
		"NewAdaptiveRun":        func(c *Campaign) (err error) { _, err = c.NewAdaptiveRun(feeds); return },
		"RunAdaptive":           func(c *Campaign) (err error) { _, err = c.RunAdaptive(ctx, feeds); return },
		"UniformTrialsToTarget": func(c *Campaign) (err error) { _, _, err = c.UniformTrialsToTarget(ctx, feeds, 1); return },
		"RunPersistent":         func(c *Campaign) (err error) { _, err = c.RunPersistent(ctx, feeds); return },
		"RunPersistentSlice":    func(c *Campaign) (err error) { _, err = c.RunPersistentSlice(ctx, feeds, 0, 1); return },
	}
	onTrial, onSequence := func(TrialResult) {}, func(SequenceResult) {}
	int8 := func(c Campaign) Campaign {
		c.Scenario, c.Calibration = BitFlips{Flips: 1}, calib
		return c
	}
	benchUniform := Campaign{Seed: 1, Workers: 1, TargetNodes: late}
	benchSequence := Campaign{Seed: 1, Workers: 1, TargetNodes: all, Surface: WeightSurface{},
		SequenceLen: 16, Repair: true, Detector: &alwaysDetector{}}
	benchQuantParam := int8(benchSequence)
	benchQuantParam.Surface, benchQuantParam.Detector = QuantParamSurface{}, &alwaysDetector{}
	stratified := Campaign{Adaptive: AdaptiveStratified, CITarget: 0.25, Strata: 2}
	for _, r := range []struct {
		entry, setting string
		c              Campaign
		ok             bool
	}{
		// Settings outside the mode.
		{"Run", "Detector", Campaign{Detector: silentDetector{}}, false},
		{"Run", "SequenceLen", Campaign{SequenceLen: 4}, false},
		{"Run", "Repair", Campaign{Repair: true}, false},
		{"Run", "OnSequence", Campaign{OnSequence: onSequence}, false},
		{"Run", "Adaptive", Campaign{Adaptive: AdaptiveStratified}, false},
		{"Run", "persistent surface", Campaign{Surface: WeightSurface{}}, false},
		{"RunSlice", "CITarget", Campaign{CITarget: 0.1}, false},
		{"RunSlice", "Strata", Campaign{Strata: 2}, false},
		{"RunWithDetector", "Calibration", int8(Campaign{Detector: silentDetector{}}), false},
		{"RunWithDetector", "Repair", Campaign{Detector: silentDetector{}, Repair: true}, false},
		{"RunWithDetector", "no Detector", Campaign{}, false},
		{"RunWithDetector", "persistent surface", Campaign{Surface: WeightSurface{}, Detector: &alwaysDetector{}}, false},
		{"NewAdaptiveRun", "Detector", Campaign{Adaptive: AdaptiveStratified, Detector: silentDetector{}}, false},
		{"NewAdaptiveRun", "persistent surface", Campaign{Surface: WeightSurface{}, Adaptive: AdaptiveStratified}, false},
		{"NewAdaptiveRun", "unknown sampling mode", Campaign{Adaptive: 7}, false},
		{"RunPersistent", "transient surface", Campaign{}, false},
		{"RunPersistent", "Repair without Detector", Campaign{Surface: WeightSurface{}, Repair: true}, false},
		{"RunPersistent", "OnTrial", Campaign{Surface: WeightSurface{}, OnTrial: onTrial}, false},
		{"RunPersistentSlice", "Adaptive", Campaign{Surface: WeightSurface{}, Adaptive: AdaptiveStratified}, false},
		// Shapes built across the repository.
		{"Run", "bench campaign fp32", benchUniform, true},
		{"Run", "bench campaign int8", int8(benchUniform), true},
		{"Run", "experiments and baselines", Campaign{Format: fixpoint.Q32, Scenario: DefaultScenario(), Seed: 3, TargetNodes: nodes[:1]}, true},
		{"RunSlice", "rangerd uniform job", Campaign{Scenario: DefaultScenario(), OnTrial: onTrial}, true},
		{"RunWithDetector", "experiments Table VI", Campaign{Format: fixpoint.Q32, Scenario: DefaultScenario(), Detector: silentDetector{}}, true},
		{"RunAdaptive", "experiments adaptive", stratified, true},
		{"UniformTrialsToTarget", "experiments adaptive baseline", stratified, true},
		{"NewAdaptiveRun", "rangerd adaptive job", Campaign{Adaptive: AdaptiveWorstCase, CITarget: 0.05, Strata: 4, OnTrial: onTrial}, true},
		{"RunPersistent", "bench persistent fp32", benchSequence, true},
		{"RunPersistent", "bench persistent int8", int8(benchSequence), true},
		{"RunPersistent", "bench persistent quantparam", benchQuantParam, true},
		{"RunPersistent", "bench detector probe", Campaign{Surface: WeightSurface{}, SequenceLen: 16, TargetNodes: all}, true},
		{"RunPersistent", "stratified sequences", Campaign{Surface: WeightSurface{}, Adaptive: AdaptiveStratified, CITarget: 0.25, Strata: 2, Detector: &alwaysDetector{}, Repair: true}, true},
		{"RunPersistentSlice", "rangerd persistent job", Campaign{Surface: WeightSurface{}, SequenceLen: 4, Repair: true, Detector: &alwaysDetector{}, OnSequence: onSequence}, true},
	} {
		t.Run(r.entry+"/"+r.setting, func(t *testing.T) {
			c := r.c
			c.Model, c.Trials = m, 1
			err := entries[r.entry](&c)
			if r.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !r.ok && err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestCampaignRunsAndCounts(t *testing.T) {
	m, feeds := lenetInputs(t, 2)
	c := &Campaign{Model: m, Trials: 25, Seed: 1}
	out, err := c.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 50 {
		t.Fatalf("trials = %d, want 50", out.Trials)
	}
	if out.Top1SDC < 0 || out.Top1SDC > out.Trials {
		t.Fatalf("top1 = %d", out.Top1SDC)
	}
	// Top-5 misses imply top-1 misses: top5 SDC count <= top1 SDC count.
	if out.Top5SDC > out.Top1SDC {
		t.Fatalf("top5 SDC %d > top1 SDC %d", out.Top5SDC, out.Top1SDC)
	}
}

func TestCampaignDeterministicAcrossRuns(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	run := func() Outcome {
		c := &Campaign{Model: m, Scenario: DefaultScenario(), Trials: 30, Seed: 42}
		out, err := c.Run(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Top1SDC != b.Top1SDC || a.Top5SDC != b.Top5SDC {
		t.Fatalf("campaigns differ: %+v vs %+v", a, b)
	}
}

func TestFaultSpaceExcludesLastFC(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	fs := planFaultSpace(t, m, feeds[0], nil, nil)
	excluded := make(map[string]bool)
	for _, n := range m.ExcludeFI {
		excluded[n] = true
	}
	for _, name := range fs.Nodes() {
		if excluded[name] {
			t.Fatalf("excluded node %q in fault space", name)
		}
		node, _ := m.Graph.Node(name)
		switch node.Op().(type) {
		case *graph.Placeholder, *graph.Variable:
			t.Fatalf("non-operator %q in fault space", name)
		}
	}
	if fs.Total() <= 0 {
		t.Fatal("empty space")
	}
}

func TestFaultSpaceExtraExclude(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	base := planFaultSpace(t, m, feeds[0], nil, nil)
	trimmed := planFaultSpace(t, m, feeds[0], []string{base.nodes[0]}, nil)
	if trimmed.total >= base.total {
		t.Fatal("extra exclusion did not shrink the space")
	}
}

func TestSampleSiteUniformOverElements(t *testing.T) {
	fs := &FaultSpace{nodes: []string{"a", "b"}, sizes: []int{10, 90}, total: 100}
	rng := rand.New(rand.NewSource(3))
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		s := fs.SampleSite(rng, 32, nil)
		counts[s.Node]++
		if s.Bit < 0 || s.Bit >= 32 {
			t.Fatalf("bit %d", s.Bit)
		}
		if s.Node == "a" && s.Elem >= 10 {
			t.Fatalf("elem %d out of a's range", s.Elem)
		}
	}
	// Element-weighted: node b (90% of elements) should dominate.
	frac := float64(counts["b"]) / 5000
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("b fraction = %v, want ~0.9", frac)
	}
}

func TestMultiBitAppliesMultipleFlips(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{Model: m, Scenario: BitFlips{Flips: 5}, Trials: 10, Seed: 9}
	out, err := c.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 10 {
		t.Fatalf("trials = %d", out.Trials)
	}
}

func TestRegressorDeviations(t *testing.T) {
	m, err := models.Build("comma")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDriving()
	feeds := []graph.Feeds{{m.Input: ds.Sample(data.Train, 0).X}}
	c := &Campaign{Model: m, Trials: 20, Seed: 2}
	out, err := c.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Deviations) != 20 {
		t.Fatalf("deviations = %d", len(out.Deviations))
	}
	for _, d := range out.Deviations {
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("bad deviation %v", d)
		}
	}
	// RateAbove is monotone decreasing in the threshold.
	prev := 1.1
	for _, th := range []float64{15, 30, 60, 120} {
		r := out.RateAbove(th)
		if r > prev {
			t.Fatalf("rate not monotone at %v", th)
		}
		prev = r
	}
}

func TestRadianModelDeviationsInDegrees(t *testing.T) {
	m, err := models.Build("dave")
	if err != nil {
		t.Fatal(err)
	}
	if m.OutputInDegrees {
		t.Fatal("dave should be radians")
	}
	ds := data.NewDrivingRadians()
	feeds := []graph.Feeds{{m.Input: ds.Sample(data.Train, 0).X}}
	c := &Campaign{Model: m, Trials: 30, Seed: 5}
	out, err := c.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	// Dave's output is within (-pi, pi) radians; converted deviations are
	// bounded by 360 degrees.
	for _, d := range out.Deviations {
		if d > 360.0001 {
			t.Fatalf("radian conversion missing: deviation %v deg", d)
		}
	}
}

// Protection integration: a Ranger-protected model must see its SDC rate
// drop under the same campaign seeds. This is the paper's core claim in
// miniature (full-scale campaigns are in the experiments package).
func TestProtectedModelHasFewerSDCs(t *testing.T) {
	ctx := context.Background()
	m, feeds := lenetInputs(t, 2)
	// Profile bounds on a handful of training samples.
	ds := data.NewDigits()
	bounds, err := core.ProfileModel(m, core.ProfileOptions{}, 10, func(i int) (graph.Feeds, error) {
		return graph.Feeds{m.Input: ds.Sample(data.Train, 100+i).X}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pm, _, err := core.ProtectModel(m, bounds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trials := 150
	origOut, err := (&Campaign{Model: m, Trials: trials, Seed: 11}).Run(ctx, feeds)
	if err != nil {
		t.Fatal(err)
	}
	protFeeds := make([]graph.Feeds, len(feeds))
	for i, f := range feeds {
		protFeeds[i] = graph.Feeds{pm.Input: f[m.Input]}
	}
	protOut, err := (&Campaign{Model: pm, Trials: trials, Seed: 11}).Run(ctx, protFeeds)
	if err != nil {
		t.Fatal(err)
	}
	if protOut.Top1SDC > origOut.Top1SDC {
		t.Fatalf("protected SDCs %d > original %d", protOut.Top1SDC, origOut.Top1SDC)
	}
}

func TestClipNodesAreInFaultSpace(t *testing.T) {
	// Faults can strike the inserted Clip operators themselves; they must
	// not be silently excluded (coverage honesty).
	m, feeds := lenetInputs(t, 1)
	bounds := core.Bounds{}
	for _, name := range m.Graph.NamesByType(ops.TypeRelu) {
		bounds[name] = core.Bound{Low: 0, High: 10}
	}
	pm, res, err := core.ProtectModel(m, bounds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs := planFaultSpace(t, pm, graph.Feeds{pm.Input: feeds[0][m.Input]}, nil, nil)
	inSpace := make(map[string]bool, len(fs.nodes))
	for _, n := range fs.nodes {
		inSpace[n] = true
	}
	for _, clip := range res.Protected {
		if !inSpace[clip] {
			t.Fatalf("clip %q missing from fault space", clip)
		}
	}
}

func TestOutcomeRates(t *testing.T) {
	o := Outcome{Trials: 200, Top1SDC: 30, Top5SDC: 10}
	if o.Top1Rate() != 0.15 || o.Top5Rate() != 0.05 {
		t.Fatalf("rates = %v %v", o.Top1Rate(), o.Top5Rate())
	}
	o2 := Outcome{Deviations: []float64{1, 20, 40, 200}}
	if o2.RateAbove(30) != 0.5 {
		t.Fatalf("rate above = %v", o2.RateAbove(30))
	}
}

func TestOutcomeRatesEmpty(t *testing.T) {
	// A zero-trial outcome must report rate 0, not NaN (divide-by-zero).
	var o Outcome
	if r := o.Top1Rate(); r != 0 || math.IsNaN(r) {
		t.Fatalf("empty top-1 rate = %v, want 0", r)
	}
	if r := o.Top5Rate(); r != 0 || math.IsNaN(r) {
		t.Fatalf("empty top-5 rate = %v, want 0", r)
	}
	if r := o.RateAbove(15); r != 0 || math.IsNaN(r) {
		t.Fatalf("empty rate-above = %v, want 0", r)
	}
}

func TestConsecutiveMultiBitFaults(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{
		Model:    m,
		Scenario: ConsecutiveBits{Flips: 3},
		Trials:   15,
		Seed:     21,
	}
	out, err := c.Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 15 {
		t.Fatalf("trials = %d", out.Trials)
	}
}

// sitesByNode groups sampled sites by node, keeping sampling order
// within each node.
func sitesByNode(drawn []Site) map[string][]Site {
	sites := make(map[string][]Site, len(drawn))
	for _, s := range drawn {
		sites[s.Node] = append(sites[s.Node], s)
	}
	return sites
}

func TestConsecutiveSitesShareOneElement(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	fs := planFaultSpace(t, m, feeds[0], nil, nil)
	c := &Campaign{Model: m, Format: fixpoint.Q16, Scenario: ConsecutiveBits{Flips: 4}}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		sites := sitesByNode(c.scenario().AppendSites(nil, fs, c.bits(), rng, nil))
		if len(sites) != 1 {
			t.Fatalf("consecutive flips span %d nodes, want 1", len(sites))
		}
		for _, ss := range sites {
			if len(ss) != 4 {
				t.Fatalf("got %d flips, want 4", len(ss))
			}
			for i := 1; i < len(ss); i++ {
				if ss[i].Elem != ss[0].Elem || ss[i].Bit != ss[i-1].Bit+1 {
					t.Fatalf("bits not consecutive on one element: %+v", ss)
				}
			}
			if ss[len(ss)-1].Bit >= c.format().Bits() {
				t.Fatalf("bit out of range: %+v", ss)
			}
		}
	}
}

func TestIndependentSitesSampleWholeWidth(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	fs := planFaultSpace(t, m, feeds[0], nil, nil)
	c := &Campaign{Model: m, Format: fixpoint.Q16, Scenario: BitFlips{Flips: 1}}
	rng := rand.New(rand.NewSource(4))
	seenHigh := false
	for trial := 0; trial < 300; trial++ {
		for _, ss := range sitesByNode(c.scenario().AppendSites(nil, fs, c.bits(), rng, nil)) {
			for _, s := range ss {
				if s.Bit >= 12 {
					seenHigh = true
				}
			}
		}
	}
	if !seenHigh {
		t.Fatal("single-bit sampling never hit high-order bits")
	}
}
