package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"ranger"
)

// Sides of every measured pair: the model as trained, and the same model
// with Ranger's range restriction inserted.
const (
	plain = 0
	prot  = 1
)

var sideNames = [2]string{"plain", "ranger"}

const (
	// profileSamples is how many training samples Profile and Calibrate
	// observe per model.
	profileSamples = 16
	// inputsPerModel is how many seeded validation samples each model
	// serves.
	inputsPerModel = 16
	// setupReps is how many times a run repeats the set-up; setup_s is
	// the median, so one slow repetition does not move it.
	setupReps = 3
)

// model is one zoo model prepared for every workload: plain and
// Ranger-protected variants on the fp32 and int8 backends, plus the
// seeded inputs it serves.
type model struct {
	name   string
	net    [2]*ranger.Model
	bounds ranger.Bounds
	calib  ranger.Calibration
	fp32   [2]*ranger.CompiledModel
	int8   [2]*ranger.QuantizedModel
	inputs []ranger.Feeds
	// profiled are persistentInputs of the training samples the bounds
	// were profiled on, which the symptom detector's thresholds cover.
	profiled []ranger.Feeds
}

// setupTimes splits one set-up repetition's time, in seconds.
type setupTimes struct {
	load   float64 // ranger.LoadModel over the zoo
	derive float64 // everything after loading
}

// setupZoo prepares the named zoo models once, recording a span per facade
// call when tr is non-nil. Its times are at the reference host speed:
// ref runs between models and scales each model's set-up.
func setupZoo(tr *tracer, ref *refKernel, names []string) ([]*model, setupTimes, error) {
	var st setupTimes
	zoo := make([]*model, 0, len(names))
	before := ref.seconds()
	for i, name := range names {
		md, t, err := setupModel(name, tr, int64(i))
		if err != nil {
			return nil, st, err
		}
		after := ref.seconds()
		st.load += atRefSpeed(t.load, before, after)
		st.derive += atRefSpeed(t.derive, before, after)
		before = after
		zoo = append(zoo, md)
	}
	return zoo, st, nil
}

// setupStep is one timed facade call of a model's set-up.
type setupStep struct {
	span string
	f    func() error
}

// setupModel loads one trained model, profiles its activation ranges,
// protects it, calibrates it for int8, and compiles and quantizes both
// variants.
func setupModel(name string, tr *tracer, op int64) (*model, setupTimes, error) {
	var st setupTimes
	root := tr.begin("setup", -1, op)
	defer tr.end(root)
	call := func(spanName string, f func() error) error {
		i := tr.begin(spanName, root, op)
		defer tr.end(i)
		if err := f(); err != nil {
			return fmt.Errorf("%s %s: %w", spanName, name, err)
		}
		return nil
	}
	md := &model{name: name}
	start := time.Now()
	err := call("train.load", func() (err error) {
		md.net[plain], err = ranger.LoadModel(name)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	st.load = time.Since(start).Seconds()
	start = time.Now()
	steps := []setupStep{
		{"core.profile", func() (err error) {
			md.bounds, err = ranger.Profile(md.net[plain], profileSamples)
			return err
		}},
		{"core.protect", func() (err error) {
			md.net[prot], _, err = ranger.Protect(md.net[plain], md.bounds, ranger.ProtectOptions{})
			return err
		}},
		// One calibration serves both variants: it observes the same
		// training samples the bounds came from, so the clamps never fire
		// and every node the plain model shares sees the same range.
		{"core.calibrate", func() (err error) {
			md.calib, err = ranger.Calibrate(md.net[prot], profileSamples)
			return err
		}},
	}
	for s := range md.net {
		steps = append(steps,
			setupStep{"graph.compile", func() (err error) {
				md.fp32[s], err = md.net[s].Compile()
				return err
			}},
			setupStep{"graph.quantize", func() (err error) {
				md.int8[s], err = md.net[s].Quantize(md.calib)
				return err
			}})
	}
	for _, s := range steps {
		if err := call(s.span, s.f); err != nil {
			return nil, st, err
		}
	}
	st.derive = time.Since(start).Seconds()
	return md, st, nil
}

// setupResult is a run's set-up: the zoo it prepared and its timings.
type setupResult struct {
	zoo    []*model
	setupS float64
	// layerMS is the per-facade-call set-up time (traced runs only):
	// train.load from the first repetition, the rest the median over
	// repetitions, each summed over the zoo.
	layerMS map[string]float64
}

// setupRepeated runs the zoo set-up setupReps times, keeps the last, and
// picks its inputs from seed. The model weights load from disk on the
// first repetition only (the zoo keeps them in memory), so setup_s is
// that load plus the median of the repetitions' remaining set-up, at the
// reference host speed.
func setupRepeated(tr *tracer, ref *refKernel, seed int64, names []string) (setupResult, error) {
	var res setupResult
	var load float64
	var derive []float64
	perRep := make(map[string][]float64)
	for rep := range setupReps {
		runtime.GC()
		from := 0
		if tr != nil {
			from = len(tr.spans)
		}
		zoo, t, err := setupZoo(tr, ref, names)
		if err != nil {
			return res, err
		}
		if rep == 0 {
			load = t.load
		}
		derive = append(derive, t.derive)
		res.zoo = zoo
		if tr != nil {
			for name, ms := range selfMillisByName(tr.spans, from, len(tr.spans)) {
				perRep[name] = append(perRep[name], ms)
			}
		}
	}
	res.setupS = load + median(derive)
	for _, md := range res.zoo {
		var err error
		if md.inputs, err = seededSamples(md.net[plain], ranger.ValSplit, inputsPerModel, 0, seed); err != nil {
			return res, err
		}
		if md.profiled, err = seededSamples(md.net[plain], ranger.TrainSplit, persistentInputs, profileSamples, seed); err != nil {
			return res, err
		}
	}
	if tr != nil {
		res.layerMS = make(map[string]float64)
		for name, ms := range perRep {
			res.layerMS[name] = median(ms)
		}
		res.layerMS["train.load"] = perRep["train.load"][0]
	}
	return res, nil
}

// seededSamples picks n distinct samples of the model's dataset split,
// chosen by seed from the first pool samples (the whole split when pool
// is 0).
func seededSamples(m *ranger.Model, split ranger.Split, n, pool int, seed int64) ([]ranger.Feeds, error) {
	ds, err := ranger.DatasetFor(m)
	if err != nil {
		return nil, err
	}
	size := ds.Len(split)
	if pool > 0 {
		size = min(size, pool)
	}
	if size < n {
		return nil, fmt.Errorf("%s: %d samples to pick %d from", m.Name, size, n)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), nameHash(m.Name)+uint64(split)))
	idx := rng.Perm(size)[:n]
	slices.Sort(idx)
	feeds := make([]ranger.Feeds, len(idx))
	for i, k := range idx {
		feeds[i] = ranger.Feeds{m.Input: ds.Sample(split, k).X}
	}
	return feeds, nil
}

// nameHash mixes a model name into seeds, so models draw distinct
// streams from one -seed.
func nameHash(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// prepare loads the named models, training and caching the ones missing
// from $RANGER_CACHE. It runs untimed. Two models train at once with one
// kernel thread each, which on two cores takes about half the time of
// training them one after another at two threads; the weights are the
// same at every thread count.
func prepare(names []string) error {
	ranger.SetWorkers(1)
	zoo := ranger.DefaultZoo()
	zoo.Quiet = false
	next := make(chan string)
	errs := make(chan error, len(names))
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range next {
				if _, err := ranger.LoadModel(name); err != nil {
					errs <- fmt.Errorf("prepare %s: %w", name, err)
				}
			}
		}()
	}
	for _, name := range names {
		next <- name
	}
	close(next)
	wg.Wait()
	close(errs)
	return <-errs
}
