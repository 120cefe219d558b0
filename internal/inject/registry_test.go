package inject

import (
	"errors"
	"sort"
	"testing"
)

// Satellite: scenario-registry contract tests — duplicate registration
// panics, unknown lookups return the typed error, and listing is
// deterministically sorted.

func TestRegisterScenarioDuplicatePanics(t *testing.T) {
	const name = "registry-test-dup"
	RegisterScenario(name, func(n int) (Scenario, error) { return BitFlips{Flips: n}, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("second registration did not panic")
		}
		// Leave the registry clean for other tests.
		scenarioMu.Lock()
		delete(scenarioRegistry, name)
		scenarioMu.Unlock()
	}()
	RegisterScenario(name, func(n int) (Scenario, error) { return BitFlips{Flips: n}, nil })
}

func TestNewScenarioUnknownTypedError(t *testing.T) {
	_, err := NewScenario("no-such-scenario", 1)
	if err == nil {
		t.Fatal("want error for unknown scenario")
	}
	if !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("error %v does not wrap ErrUnknownScenario", err)
	}
}

func TestScenarioNamesSortedAndComplete(t *testing.T) {
	names := ScenarioNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("scenario names not sorted: %v", names)
	}
	want := map[string]bool{
		"bitflip": true, "consecutive": true, "randomvalue": true,
		"stuckat0": true, "stuckat1": true,
		"bitflip-int8": true, "stuckat-int8": true,
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for n := range want {
		if !have[n] {
			t.Fatalf("built-in scenario %q missing from %v", n, names)
		}
	}
	// Every listed name constructs, and its Name() round-trips
	// (provenance: reports name what ran). The -int8 names kept for
	// stored job specs build the shared fault models and report theirs.
	alias := map[string]string{"bitflip-int8": "bitflip", "stuckat-int8": "stuckat1", "burst-int8": "burst"}
	for _, n := range names {
		s, err := NewScenario(n, 1)
		if err != nil {
			t.Fatalf("NewScenario(%q): %v", n, err)
		}
		want := n
		if a, ok := alias[n]; ok {
			want = a
		}
		if s.Name() != want {
			t.Fatalf("NewScenario(%q).Name() = %q, want %q", n, s.Name(), want)
		}
	}
}
