package twopage_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles one command into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runBin(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// runBinErr runs a binary expecting a non-zero exit, returning the exit
// code and combined output.
func runBinErr(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: succeeded, want non-zero exit\n%s", filepath.Base(bin), args, out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v (not an exit error)\n%s", filepath.Base(bin), args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// End-to-end CLI coverage: every binary builds and performs a small,
// real scenario through its flag surface.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	t.Run("paper", func(t *testing.T) {
		bin := buildCmd(t, dir, "paper")
		out := runBin(t, bin, "-list")
		for _, want := range []string{"table3.1", "fig5.1", "tlbsweep"} {
			if !strings.Contains(out, want) {
				t.Errorf("-list missing %q", want)
			}
		}
		out = runBin(t, bin, "-scale", "0.01", "-workloads", "li", "table3.1")
		if !strings.Contains(out, "li") || !strings.Contains(out, "RPI") {
			t.Errorf("table3.1 output malformed:\n%s", out)
		}
		out = runBin(t, bin, "-scale", "0.01", "-workloads", "li", "-csv", "fig4.2")
		if !strings.HasPrefix(out, "Program,") {
			t.Errorf("csv output malformed:\n%s", out)
		}
		out = runBin(t, bin, "-scale", "0.01", "-workloads", "li", "-chart", "fig5.1")
		if !strings.Contains(out, "#") || !strings.Contains(out, "scale, max") {
			t.Errorf("chart output malformed:\n%s", out)
		}
	})

	t.Run("tracegen-tlbsim-wsssim-traceinfo", func(t *testing.T) {
		gen := buildCmd(t, dir, "tracegen")
		sim := buildCmd(t, dir, "tlbsim")
		wss := buildCmd(t, dir, "wsssim")
		info := buildCmd(t, dir, "traceinfo")

		trc := filepath.Join(dir, "li.trc")
		out := runBin(t, gen, "-workload", "li", "-refs", "50000", "-o", trc)
		if !strings.Contains(out, "wrote 50000 references") {
			t.Errorf("tracegen output: %s", out)
		}
		if _, err := os.Stat(trc); err != nil {
			t.Fatal(err)
		}
		out = runBin(t, sim, "-trace", trc, "-entries", "16", "-T", "6000")
		if !strings.Contains(out, "CPI_TLB") || !strings.Contains(out, "refs:        50000") {
			t.Errorf("tlbsim output:\n%s", out)
		}
		out = runBin(t, sim, "-workload", "li", "-refs", "50000", "-two", "-wss")
		if !strings.Contains(out, "promotions:") || !strings.Contains(out, "avg WSS") {
			t.Errorf("tlbsim -two output:\n%s", out)
		}
		out = runBin(t, wss, "-workload", "li", "-refs", "50000")
		if !strings.Contains(out, "4KB/32KB") || !strings.Contains(out, "normalized") {
			t.Errorf("wsssim output:\n%s", out)
		}
		out = runBin(t, info, "-trace", trc)
		if !strings.Contains(out, "chunk density") {
			t.Errorf("traceinfo output:\n%s", out)
		}

		// Custom spec pipeline.
		spec := filepath.Join(dir, "w.spec")
		if err := os.WriteFile(spec, []byte("uniform base=1M size=64K weight=1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out = runBin(t, sim, "-spec", spec, "-refs", "30000")
		if !strings.Contains(out, "refs:        30000") {
			t.Errorf("tlbsim -spec output:\n%s", out)
		}
	})

	t.Run("tlbsim-walk", func(t *testing.T) {
		bin := buildCmd(t, dir, "tlbsim")
		out := runBin(t, bin, "-workload", "li", "-refs", "50000", "-two", "-walk")
		for _, want := range []string{"emergent penalty", "walk model:", "PWC:", "mem cache:"} {
			if !strings.Contains(out, want) {
				t.Errorf("tlbsim -walk output missing %q:\n%s", want, out)
			}
		}
		// -walk without a multi-size policy is a usage error.
		if code, out := runBinErr(t, bin, "-workload", "li", "-refs", "50000", "-walk"); code != 1 || !strings.Contains(out, "-walk needs a multi-size policy") {
			t.Errorf("single-size -walk: exit %d, output:\n%s", code, out)
		}
	})

	// -warmup without -shards > 1 used to be silently ignored: the user
	// believed they measured warm state but got the cold serial pass.
	// All three cmds must reject the combination with exit 2 and name
	// the flag.
	t.Run("warmup-needs-shards", func(t *testing.T) {
		cases := []struct {
			name string
			args []string
		}{
			{"tlbsim", []string{"-workload", "li", "-refs", "50000", "-warmup", "1000"}},
			{"paper", []string{"-scale", "0.01", "-workloads", "li", "-warmup", "1000", "table3.1"}},
			{"wsssim", []string{"-workload", "li", "-refs", "50000", "-warmup", "1000"}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				bin := buildCmd(t, dir, tc.name)
				code, out := runBinErr(t, bin, tc.args...)
				if code != 2 {
					t.Errorf("exit = %d, want 2\n%s", code, out)
				}
				if !strings.Contains(out, "-warmup") {
					t.Errorf("error does not name the -warmup flag:\n%s", out)
				}
			})
		}
	})

	// Values a user can type that used to end in a Go panic (or, for
	// -scale NaN, a run that never finished): each must exit 2 with a
	// one-line message naming the flag, and no goroutine dump.
	t.Run("bad-values-exit-2", func(t *testing.T) {
		cases := []struct {
			name, cmd, flag string
			args            []string
		}{
			{"derived-T-zero", "tlbsim", "-T", []string{"-workload", "li", "-refs", "1", "-two"}},
			{"negative-T", "tlbsim", "-T", []string{"-workload", "li", "-refs", "50000", "-two", "-T", "-5"}},
			{"threshold-zero", "tlbsim", "-threshold", []string{"-workload", "li", "-refs", "50000", "-two", "-threshold", "0"}},
			{"threshold-above", "tlbsim", "-threshold", []string{"-workload", "li", "-refs", "50000", "-two", "-threshold", "99"}},
			{"pagesize-not-pow2", "tlbsim", "-pagesize", []string{"-workload", "li", "-refs", "50000", "-pagesize", "3000"}},
			{"ladder-negative-T", "tlbsim", "-T", []string{"-workload", "li", "-refs", "50000", "-ladder", "-sizes", "4096,32768", "-T", "-3"}},
			{"vmsim-derived-T-zero", "vmsim", "-T", []string{"-workload", "li", "-refs", "1", "-two"}},
			{"vmsim-negative-T", "vmsim", "-T", []string{"-workload", "li", "-refs", "50000", "-two", "-T", "-5"}},
			{"wsssim-derived-T-zero", "wsssim", "-T", []string{"-workload", "li", "-refs", "1"}},
			{"scale-negative", "paper", "-scale", []string{"-scale", "-1", "-workloads", "li", "table3.1"}},
			{"scale-zero", "paper", "-scale", []string{"-scale", "0", "-workloads", "li", "table3.1"}},
			{"scale-nan", "paper", "-scale", []string{"-scale", "NaN", "-workloads", "li", "table3.1"}},
			{"scale-inf", "paper", "-scale", []string{"-scale", "+Inf", "-workloads", "li", "table3.1"}},
		}
		bins := map[string]string{}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				if bins[tc.cmd] == "" {
					bins[tc.cmd] = buildCmd(t, dir, tc.cmd)
				}
				// A deadline, so a value that makes the run hang fails
				// the case instead of stalling the suite.
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				b, err := exec.CommandContext(ctx, bins[tc.cmd], tc.args...).CombinedOutput()
				out := string(b)
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != 2 {
					t.Fatalf("%v: %v, want exit 2\n%s", tc.args, err, out)
				}
				if !strings.Contains(out, tc.flag) {
					t.Errorf("error does not name the %s flag:\n%s", tc.flag, out)
				}
				if strings.Contains(out, "goroutine") {
					t.Errorf("output carries a goroutine dump:\n%s", out)
				}
				if n := strings.Count(strings.TrimSpace(out), "\n"); n != 0 {
					t.Errorf("want a one-line message, got %d lines:\n%s", n+1, out)
				}
			})
		}
	})

	// Minimal decode of a -stats run report: just the fields these
	// smoke tests assert on.
	type report struct {
		Schema string `json:"schema"`
		Tool   string `json:"tool"`
		Totals struct {
			Passes uint64 `json:"passes"`
			Refs   uint64 `json:"refs"`
		} `json:"totals"`
		Passes []struct {
			Key string `json:"key"`
		} `json:"passes"`
	}
	readReport := func(t *testing.T, path string) report {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("%s: invalid report JSON: %v\n%s", path, err, b)
		}
		if r.Schema != "twopage.run-report/v1" {
			t.Errorf("%s: schema = %q", path, r.Schema)
		}
		return r
	}

	t.Run("tlbsim-stats", func(t *testing.T) {
		bin := buildCmd(t, dir, "tlbsim")
		rep := filepath.Join(dir, "tlbsim-report.json")
		runBin(t, bin, "-workload", "li", "-refs", "50000", "-stats", rep)
		r := readReport(t, rep)
		if r.Tool != "tlbsim" {
			t.Errorf("tool = %q", r.Tool)
		}
		if r.Totals.Refs != 50000 {
			t.Errorf("totals.refs = %d, want 50000", r.Totals.Refs)
		}
		if len(r.Passes) != 1 {
			t.Errorf("passes = %d entries, want 1", len(r.Passes))
		}
	})

	t.Run("wsssim-stats", func(t *testing.T) {
		bin := buildCmd(t, dir, "wsssim")
		rep := filepath.Join(dir, "wsssim-report.json")
		runBin(t, bin, "-workload", "li", "-refs", "50000", "-stats", rep)
		r := readReport(t, rep)
		if r.Tool != "wsssim" {
			t.Errorf("tool = %q", r.Tool)
		}
		// One static pass plus the two-size pass.
		if r.Totals.Passes != 2 || len(r.Passes) != 2 {
			t.Errorf("passes = %d (totals %d), want 2", len(r.Passes), r.Totals.Passes)
		}
		if r.Totals.Refs != 100000 {
			t.Errorf("totals.refs = %d, want 100000 (two 50000-ref passes)", r.Totals.Refs)
		}
	})

	// SIGINT must produce a one-line notice and conventional exit 130,
	// not a raw "context canceled" error with exit 1.
	t.Run("paper-sigint", func(t *testing.T) {
		bin := buildCmd(t, dir, "paper")
		cmd := exec.Command(bin, "-scale", "1", "-j", "2", "all")
		var out strings.Builder
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Give the run time to get into the simulation loop, then
		// interrupt it; a watchdog kill bounds a hung process.
		time.Sleep(700 * time.Millisecond)
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("paper did not exit within 30s of SIGINT")
		}
		if code := cmd.ProcessState.ExitCode(); code != 130 {
			t.Errorf("exit after SIGINT = %d, want 130\n%s", code, out.String())
		}
		if !strings.Contains(out.String(), "paper: interrupted") {
			t.Errorf("missing interrupted notice:\n%s", out.String())
		}
		if strings.Contains(out.String(), "context canceled") {
			t.Errorf("raw context error leaked to user:\n%s", out.String())
		}
	})

	t.Run("vmsim", func(t *testing.T) {
		bin := buildCmd(t, dir, "vmsim")
		out := runBin(t, bin, "-workload", "matrix300", "-refs", "100000", "-mem", "1M", "-two")
		for _, want := range []string{"TLB:", "walks:", "promotion:", "cycles/access"} {
			if !strings.Contains(out, want) {
				t.Errorf("vmsim output missing %q:\n%s", want, out)
			}
		}
	})
}
