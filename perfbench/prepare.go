package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// The serve workload needs a trained model and published artifacts
// before it can start. A prepare step in its own process
// builds the model, publishes it to a registry in the run's scratch
// directory and computes the probe set, so the build's heap counts in
// no serving metric. It also reports what every workload reports about
// the model: build time, validation error and the library's per-call
// costs on the freshly built model.
const prepareCmd = "prepare"

// prepared is what the prepare step hands to the serving process.
type prepared struct {
	Recoveries int         `json:"recoveries"`
	Kernel     kernelTimes `json:"kernel"`
	Registry   string      `json:"registry"`
	Versions   []string    `json:"versions"`
	Probes     []probe     `json:"probes"`
}

// prepareMain is the child-process entry point.
func prepareMain(args []string) int {
	fl := flag.NewFlagSet(prepareCmd, flag.ContinueOnError)
	seed := fl.Int64("seed", 1, "")
	seconds := fl.Float64("seconds", 10, "")
	dir := fl.String("dir", "", "scratch directory")
	sizesJSON := fl.String("sizes", "", "")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var sz sizes
	if err := json.Unmarshal([]byte(*sizesJSON), &sz); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench prepare: bad sizes: %v\n", err)
		return 2
	}
	if err := prepare(*seed, *seconds, *dir, sz); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench prepare: %v\n", err)
		return 1
	}
	return 0
}

func prepare(seed int64, seconds float64, dir string, sz sizes) error {
	b, err := buildAll(sz, seed)
	if err != nil {
		return err
	}
	reg := filepath.Join(dir, "registry")
	versions, err := publishAll(reg, b, false)
	if err != nil {
		return err
	}
	cfg := config{seconds: seconds}
	p := prepared{
		Recoveries: b.stats.Recoveries,
		Kernel:     timeKernels(b, cfg.dur(0.1), seed),
		Registry:   reg,
		Versions:   versions,
		Probes:     makeProbes(b.g, b.model, sz, seed),
	}
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "prepared.json"), data, 0o644)
}

// runPrepare runs the prepare step in a child process and waits for it.
func runPrepare(cfg *config) (*prepared, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sz, _ := json.Marshal(cfg.sizes)
	cmd := exec.Command(exe, prepareCmd,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--dir", cfg.work,
		"--sizes", string(sz))
	cmd.Stdout = cfg.log
	cmd.Stderr = cfg.log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("prepare step: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.work, "prepared.json"))
	if err != nil {
		return nil, err
	}
	var p prepared
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// addPrepared reports the model metrics the prepare step measured.
func addPrepared(rep *report, p *prepared) {
	rep.check(p.Recoveries == 0, "build needed %d sentinel recoveries", p.Recoveries)
	addKernels(rep, p.Kernel)
}
