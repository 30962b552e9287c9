package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ipas/internal/svm"
)

var updateSVMTestdata = flag.Bool("update-svm-testdata", false, "rewrite internal/svm/testdata/train-*.json from fresh collections")

// svmTrainingSet is the on-disk form of one workflow training set, as
// internal/svm's tests and benchmarks load it: the scaled feature
// vectors, stored once per distinct vector (Vectors) with each row's
// vector index (Rows), and both label vectors.
type svmTrainingSet struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Vectors  [][]float64 `json:"vectors"`
	Rows     []int       `json:"rows"`
	IPAS     []int       `json:"ipas"`
	Baseline []int       `json:"baseline"`
}

// svmTestdataSeed is the collection seed of workflow-is unit 0 at
// benchmark seed 1 (cmd/ipasbench: seed·1,000,003 + unit).
const svmTestdataSeed = 1_000_003

// TestSVMTestdata checks that internal/svm/testdata holds the training
// sets a 100-sample workflow collects at svmTestdataSeed on IS, FFT
// and CoMD, scaled as TrainContext scales them. Regenerate with
//
//	go test ./internal/core -run '^TestSVMTestdata$' -update-svm-testdata
func TestSVMTestdata(t *testing.T) {
	if testing.Short() && !*updateSVMTestdata {
		t.Skip("collects three 100-trial campaigns")
	}
	for _, name := range []string{"IS", "FFT", "CoMD"} {
		data, err := Collect(loadApp(t, name), 100, svmTestdataSeed)
		if err != nil {
			t.Fatal(err)
		}
		set := svmTrainingSet{Workload: name, Seed: svmTestdataSeed, IPAS: data.Labels(PolicyIPAS), Baseline: data.Labels(PolicyBaseline)}
		index := map[string]int{}
		for _, x := range svm.FitScaler(data.X).ApplyAll(data.X) {
			key, err := json.Marshal(x)
			if err != nil {
				t.Fatal(err)
			}
			v, ok := index[string(key)]
			if !ok {
				v = len(set.Vectors)
				index[string(key)] = v
				set.Vectors = append(set.Vectors, x)
			}
			set.Rows = append(set.Rows, v)
		}
		got, err := json.Marshal(&set)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("..", "svm", "testdata", "train-"+name+".json")
		if *updateSVMTestdata {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %s is stale; regenerate it with -update-svm-testdata", name, path)
		}
	}
}
