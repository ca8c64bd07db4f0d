package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// setsRecord is what -sets writes and -compare reads: every run of every
// set, with the machine they ran on.
type setsRecord struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seconds     float64     `json:"seconds"`
	Shift       int64       `json:"shift"`
	Runs        []runRecord `json:"runs"`
}

// runSets is the noise protocol: n untraced sets, then one traced set. A
// set runs every workload once, each in a process of its own, in the fixed
// order A B C D — so a slow phase of a shared machine lands on all of them
// instead of on all repetitions of one. Set k uses seed k.
func runSets(n int, secs float64, shift int64, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := setsRecord{Fingerprint: newFingerprint(), Seconds: secs, Shift: shift}
	tmp := filepath.Join(outDir, "run.tmp.json")
	defer os.Remove(tmp)
	for set := 1; set <= n+1; set++ {
		traced := set == n+1
		for _, w := range workloadNames() {
			args := []string{
				"-workload", w, "-seed", strconv.Itoa(set), "-shift", strconv.FormatInt(shift, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-out", outDir, "-record", tmp,
			}
			if traced {
				args = append(args, "-trace", "1")
			}
			var childOut bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &childOut, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set %d %s: %w", set, w, err)
			}
			b, err := os.ReadFile(tmp)
			if err != nil {
				return err
			}
			var run runRecord
			if err := json.Unmarshal(b, &run); err != nil {
				return fmt.Errorf("set %d %s: %w", set, w, err)
			}
			run.Set = set
			rec.Runs = append(rec.Runs, run)
			fmt.Printf("# set %d %s traced=%v correct=%v attempted=%d failed=%d\n%s", set, w, traced, run.Correct, run.Attempted, run.Failed, childOut.String())
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-sets%d.json", rec.Fingerprint.Commit, n))
	if err := writeJSON(path, rec); err != nil {
		return err
	}
	fmt.Println("# wrote", path)
	return nil
}
