package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	"boosthd/internal/boosthd"
	"boosthd/internal/dataset"
	"boosthd/internal/signal"
	"boosthd/internal/synth"
)

// Model and data sizes. The served model is the paper-scale BoostHD
// ensemble the demo server trains (D=10000, 10 learners); the synthetic
// WESAD roster is split into subjects the base model trains on,
// subjects whose rows are scored by wearable/bulk, and subjects that
// become per_person tenants.
const (
	modelDim      = 10000
	modelLearners = 10
	modelEpochs   = 5

	baseSubjects   = 14
	testSubjects   = 24
	tenantSubjects = 24
	samplesPerCase = 4096
)

// corpus is everything a run derives from its seed: the base model's
// training rows plus the normalized rows the clients send. The same seed
// always yields the same corpus.
type corpus struct {
	trainX [][]float64
	trainY []int
	// testX/testY are held-out subjects' rows scored by wearable and bulk.
	testX [][]float64
	testY []int
	// tenants are the per_person subjects, in roster order.
	tenants []tenantData
	classes int
}

// tenantData is one per_person subject's rows, split by use: warm rows
// build the delta persisted before the clock, observe rows feed the
// write lane, read rows feed the read lane, and held-out rows are
// replayed after the run for the correctness gate and accuracy.
type tenantData struct {
	id              string
	warmX, observeX [][]float64
	warmY, observeY []int
	readX, heldX    [][]float64
	readY, heldY    []int
}

// warmRows is each tenant's pre-clock training set, sized to the tenant
// trainer's default MinRetrain so the warm-up retrain always swaps.
const warmRows = 32

func buildCorpus(seed int64) (*corpus, error) {
	cfg := synth.WESADConfig()
	cfg.NumSubjects = baseSubjects + testSubjects + tenantSubjects
	cfg.SamplesPerState = samplesPerCase
	cfg.Seed = seed
	data, roster, err := synth.Build(cfg)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(roster))
	for i, s := range roster {
		ids[i] = s.ID
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	trainIDs := ids[:baseSubjects]
	testIDs := ids[baseSubjects : baseSubjects+testSubjects]
	tenantIDs := append([]int(nil), ids[baseSubjects+testSubjects:]...)
	sort.Ints(tenantIDs)

	rest, train, err := dataset.SplitBySubjects(data, trainIDs)
	if err != nil {
		return nil, err
	}
	norm, err := signal.FitNormalizer(train.X, signal.ZScore)
	if err != nil {
		return nil, err
	}
	if _, err := norm.Apply(rest.X); err != nil {
		return nil, err
	}
	if _, err := norm.Apply(train.X); err != nil {
		return nil, err
	}
	c := &corpus{trainX: train.X, trainY: train.Y, classes: data.NumClasses}
	isTest := map[int]bool{}
	for _, id := range testIDs {
		isTest[id] = true
	}
	bySubject := map[int]*dataset.Dataset{}
	for i, s := range rest.Subjects {
		if isTest[s] {
			c.testX = append(c.testX, rest.X[i])
			c.testY = append(c.testY, rest.Y[i])
			continue
		}
		d := bySubject[s]
		if d == nil {
			d = &dataset.Dataset{}
			bySubject[s] = d
		}
		d.X = append(d.X, rest.X[i])
		d.Y = append(d.Y, rest.Y[i])
	}
	for i, s := range tenantIDs {
		d := bySubject[s]
		n := len(d.Y)
		if n < 2*warmRows {
			return nil, fmt.Errorf("subject %d has only %d rows", s, n)
		}
		// The dataset is already shuffled, so contiguous cuts mix states.
		nObs := n / 2
		nRead := n / 4
		t := tenantData{
			id:    fmt.Sprintf("tenant-%02d", i),
			warmX: d.X[:warmRows], warmY: d.Y[:warmRows],
			observeX: d.X[warmRows:nObs], observeY: d.Y[warmRows:nObs],
			readX: d.X[nObs : nObs+nRead], readY: d.Y[nObs : nObs+nRead],
			heldX: d.X[nObs+nRead:], heldY: d.Y[nObs+nRead:],
		}
		c.tenants = append(c.tenants, t)
	}
	return c, nil
}

// trainCheckpoint trains the base model on the corpus and writes it as
// a float checkpoint, which serve.LoadEngine loads on either backend.
func trainCheckpoint(seed int64, path string) error {
	c, err := buildCorpus(seed)
	if err != nil {
		return err
	}
	mcfg := boosthd.DefaultConfig(modelDim, modelLearners, c.classes)
	mcfg.Epochs = modelEpochs
	mcfg.Seed = seed
	m, err := boosthd.Train(c.trainX, c.trainY, mcfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
