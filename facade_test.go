// Facade tests: exercise the public API surface exactly as an external
// consumer would — importing only the root ranger package.
package ranger_test

import (
	"context"
	"errors"
	"testing"

	"ranger"
)

func facadeModel(t *testing.T) (*ranger.Model, []ranger.Feeds) {
	t.Helper()
	m, err := ranger.BuildModel("lenet")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ranger.DatasetFor(m)
	if err != nil {
		t.Fatal(err)
	}
	feeds := []ranger.Feeds{{m.Input: ds.Sample(ranger.TrainSplit, 0).X}}
	return m, feeds
}

func TestFacadeCampaignPipeline(t *testing.T) {
	ctx := context.Background()
	m, feeds := facadeModel(t)
	bounds, err := ranger.Profile(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	protected, report, err := ranger.Protect(m, bounds, ranger.ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Protected) == 0 {
		t.Fatal("no nodes protected")
	}
	out, err := (&ranger.Campaign{Model: protected, Trials: 10, Seed: 1}).Run(ctx, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 10 {
		t.Fatalf("trials = %d", out.Trials)
	}
}

func TestFacadeScenarioAndProtectorRegistries(t *testing.T) {
	scenarios := ranger.ScenarioNames()
	if len(scenarios) < 5 {
		t.Fatalf("scenario registry too small: %v", scenarios)
	}
	for _, name := range scenarios {
		if _, err := ranger.NewScenario(name, 1); err != nil {
			t.Fatalf("NewScenario(%q): %v", name, err)
		}
	}
	protectors := ranger.ProtectorNames()
	if len(protectors) < 7 {
		t.Fatalf("protector registry too small: %v", protectors)
	}
	for _, name := range protectors {
		if _, err := ranger.NewProtector(name); err != nil {
			t.Fatalf("NewProtector(%q): %v", name, err)
		}
	}
	if len(ranger.ExperimentIDs()) != 18 {
		t.Fatalf("experiment ids = %v", ranger.ExperimentIDs())
	}
}

func TestFacadeStreamDeliversAndCancels(t *testing.T) {
	m, feeds := facadeModel(t)
	// Full run: the stream yields every trial, then wait() agrees.
	c := &ranger.Campaign{Model: m, Scenario: ranger.BitFlips{Flips: 2}, Trials: 8, Seed: 3}
	results, wait := ranger.Stream(context.Background(), c, feeds)
	n := 0
	for range results {
		n++
	}
	out, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || out.Trials != 8 {
		t.Fatalf("streamed %d trials, outcome %d, want 8", n, out.Trials)
	}

	// Cancelled run: the stream closes early and wait() reports ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c2 := &ranger.Campaign{Model: m, Trials: 10_000, Seed: 3}
	results2, wait2 := ranger.Stream(ctx, c2, feeds)
	seen := 0
	for range results2 {
		if seen++; seen == 3 {
			cancel()
		}
	}
	if _, err := wait2(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= 10_000 {
		t.Fatal("stream ran to completion despite cancellation")
	}
}
