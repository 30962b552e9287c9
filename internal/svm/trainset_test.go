package svm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// trainingSet is a workflow training set checked in under testdata:
// the scaled feature vectors one workload's 100-sample collection
// trains on, with both label vectors. Each distinct vector is stored
// once (Vectors) and each row names its vector (Rows).
// internal/core's TestSVMTestdata regenerates and checks the files.
type trainingSet struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Vectors  [][]float64 `json:"vectors"`
	Rows     []int       `json:"rows"`
	IPAS     []int       `json:"ipas"`
	Baseline []int       `json:"baseline"`
}

// trainingSetNames are the workloads with a checked-in training set.
var trainingSetNames = []string{"IS", "FFT", "CoMD"}

// loadProblem reads testdata/train-<name>.json as a problem labelled
// for IPAS (SOC-generating = +1) or, with baseline set, for the
// symptom baseline. Every row gets its own copy of its vector, as a
// freshly scaled training set has.
func loadProblem(tb testing.TB, name string, baseline bool) *Problem {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "train-"+name+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	var set trainingSet
	if err := json.Unmarshal(data, &set); err != nil {
		tb.Fatal(err)
	}
	p := &Problem{Y: set.IPAS}
	if baseline {
		p.Y = set.Baseline
	}
	for _, v := range set.Rows {
		p.X = append(p.X, append([]float64(nil), set.Vectors[v]...))
	}
	if err := p.Validate(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// classWeights returns the inverse-frequency weights GridSearch uses
// with WeightByClassFreq.
func classWeights(p *Problem) (wPos, wNeg float64) {
	pos, neg := p.Count()
	n := float64(pos + neg)
	return n / (2 * float64(pos)), n / (2 * float64(neg))
}
