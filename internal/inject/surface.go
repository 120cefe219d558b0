package inject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrUnknownSurface reports a surface name absent from the registry;
// NewSurface wraps it so callers can branch with errors.Is.
var ErrUnknownSurface = errors.New("inject: unknown surface")

// Surface identifies where injected faults live, orthogonally to the
// Scenario (which says how struck words corrupt). The activation surface
// is the paper's transient model: a value corrupted in flight, gone
// after the inference. Persistent surfaces model faults in stored state
// — weight memory, quantization parameters — that corrupt every
// inference until detected and repaired, which campaigns measure as
// detection/SDC latency over inference sequences (Campaign.RunPersistent).
type Surface interface {
	// Name returns the registered surface name.
	Name() string
	// Persistent reports whether faults on this surface outlive a single
	// inference. Persistent surfaces run sequence campaigns through
	// RunPersistent; the transient activation surface runs through Run.
	Persistent() bool
	// Validate rejects campaign configurations the surface cannot
	// execute (wrong backend).
	Validate(c *Campaign) error
}

// ActivationSurface is the default, transient surface: faults strike
// operator outputs in flight, one inference at a time (the paper's
// model, and the behavior of every campaign before surfaces existed).
type ActivationSurface struct{}

// Name implements Surface.
func (ActivationSurface) Name() string { return "activation" }

// Persistent implements Surface: activation faults are transient.
func (ActivationSurface) Persistent() bool { return false }

// Validate implements Surface: every campaign configuration the engine
// accepts can run on the activation surface.
func (ActivationSurface) Validate(*Campaign) error { return nil }

// WeightSurface is the persistent weight-memory surface: a sampled bit
// in a stored weight stays flipped across a sequence of inferences. On
// the fp32 backend faults strike the fixed-point encoding of Variable
// tensors; on int8 they strike the stored quantized weight buffers of
// Dense/Conv kernels. Detection triggers scrub-from-golden repair when
// Campaign.Repair is set.
type WeightSurface struct{}

// Name implements Surface.
func (WeightSurface) Name() string { return "weight" }

// Persistent implements Surface.
func (WeightSurface) Persistent() bool { return true }

// Validate implements Surface: the weight surface runs on both backends
// with any scenario.
func (WeightSurface) Validate(*Campaign) error { return nil }

// QuantParamSurface is the persistent quantization-parameter surface, a
// uniquely int8 failure mode: faults corrupt the stored bytes of a
// quantized step's output scale (four float32 bytes) or zero point (one
// byte). Producer and consumers read the same corrupted parameter
// memory, so the struck step requantizes into — and every consumer
// interprets its input under — the corrupted parameters.
type QuantParamSurface struct{}

// Name implements Surface.
func (QuantParamSurface) Name() string { return "quantparam" }

// Persistent implements Surface.
func (QuantParamSurface) Persistent() bool { return true }

// Validate implements Surface: quant-param faults exist only on the
// int8 backend.
func (QuantParamSurface) Validate(c *Campaign) error {
	if c.Calibration == nil {
		return errors.New("inject: quantparam surface requires the int8 backend (Calibration)")
	}
	return nil
}

// SurfaceFactory builds a registered Surface.
type SurfaceFactory func() (Surface, error)

var (
	surfaceMu       sync.RWMutex
	surfaceRegistry = map[string]SurfaceFactory{}
)

// RegisterSurface adds a named surface factory. Registering a name twice
// panics: surface names select fault surfaces on the command line and in
// job specs, so a silent override would corrupt experiment provenance.
func RegisterSurface(name string, f SurfaceFactory) {
	surfaceMu.Lock()
	defer surfaceMu.Unlock()
	if _, dup := surfaceRegistry[name]; dup {
		panic(fmt.Sprintf("inject: surface %q registered twice", name))
	}
	surfaceRegistry[name] = f
}

// NewSurface builds a registered surface by name.
func NewSurface(name string) (Surface, error) {
	surfaceMu.RLock()
	f, ok := surfaceRegistry[name]
	surfaceMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownSurface, name, SurfaceNames())
	}
	return f()
}

// SurfaceNames returns the registered surface names, sorted.
func SurfaceNames() []string {
	surfaceMu.RLock()
	defer surfaceMu.RUnlock()
	names := make([]string, 0, len(surfaceRegistry))
	for name := range surfaceRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultSurface returns the transient activation surface, the campaign
// default.
func DefaultSurface() Surface { return ActivationSurface{} }

func init() {
	RegisterSurface("activation", func() (Surface, error) { return ActivationSurface{}, nil })
	RegisterSurface("weight", func() (Surface, error) { return WeightSurface{}, nil })
	RegisterSurface("quantparam", func() (Surface, error) { return QuantParamSurface{}, nil })
}

// surface resolves the campaign's configured surface (nil = activation).
func (c *Campaign) surface() Surface {
	if c.Surface == nil {
		return ActivationSurface{}
	}
	return c.Surface
}
