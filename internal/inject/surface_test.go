package inject

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
)

func TestSurfaceRegistryLookup(t *testing.T) {
	for _, name := range []string{"activation", "weight", "quantparam"} {
		s, err := NewSurface(name)
		if err != nil {
			t.Fatalf("NewSurface(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("surface %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewSurface("activation"); err != nil {
		t.Fatal(err)
	}
	_, err := NewSurface("no-such-surface")
	if !errors.Is(err, ErrUnknownSurface) {
		t.Fatalf("want ErrUnknownSurface, got %v", err)
	}
	// The error names the available surfaces, like the scenario registry.
	if !strings.Contains(err.Error(), "weight") {
		t.Fatalf("error should list registered surfaces: %v", err)
	}
}

func TestSurfaceNamesSorted(t *testing.T) {
	names := SurfaceNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("surface names not sorted: %v", names)
	}
	want := map[string]bool{"activation": true, "weight": true, "quantparam": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing surfaces %v in %v", want, names)
	}
}

func TestSurfaceDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate surface registration should panic")
		}
	}()
	RegisterSurface("weight", func() (Surface, error) { return WeightSurface{}, nil })
}

func TestSurfacePersistence(t *testing.T) {
	if (ActivationSurface{}).Persistent() {
		t.Fatal("activation surface must be transient")
	}
	if !(WeightSurface{}).Persistent() || !(QuantParamSurface{}).Persistent() {
		t.Fatal("weight and quantparam surfaces must be persistent")
	}
	if DefaultSurface().Name() != "activation" {
		t.Fatalf("default surface = %q", DefaultSurface().Name())
	}
}

func TestPersistentSurfaceRejectedByTransientEntryPoints(t *testing.T) {
	ctx := context.Background()
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{Model: m, Trials: 1, Surface: WeightSurface{}}
	if _, err := c.Run(ctx, feeds); err == nil {
		t.Fatal("Run should reject persistent surfaces")
	}
	dc := &Campaign{Model: m, Trials: 1, Surface: WeightSurface{}, Detector: &alwaysDetector{}}
	if _, err := dc.RunWithDetector(ctx, feeds); err == nil {
		t.Fatal("RunWithDetector should reject persistent surfaces")
	}
	ac := &Campaign{Model: m, Trials: 1, Surface: WeightSurface{}, Adaptive: AdaptiveStratified}
	if _, err := ac.NewAdaptiveRun(feeds); err == nil {
		t.Fatal("NewAdaptiveRun should reject persistent surfaces")
	}
}

func TestTransientSurfaceRejectedByRunPersistent(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{Model: m, Trials: 1}
	if _, err := c.RunPersistent(context.Background(), feeds); err == nil {
		t.Fatal("RunPersistent should reject the transient activation surface")
	}
}

func TestQuantParamSurfaceRequiresInt8Backend(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{Model: m, Trials: 1, Surface: QuantParamSurface{}}
	if _, err := c.RunPersistent(context.Background(), feeds); err == nil {
		t.Fatal("quantparam surface should require the int8 backend")
	}
}

func TestRepairRequiresDetector(t *testing.T) {
	m, feeds := lenetInputs(t, 1)
	c := &Campaign{Model: m, Trials: 1, Surface: WeightSurface{}, Repair: true}
	if _, err := c.RunPersistent(context.Background(), feeds); err == nil {
		t.Fatal("Repair without a Detector should be rejected")
	}
}
