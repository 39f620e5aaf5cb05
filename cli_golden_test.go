package twopage_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIGolden pins the command-line surface byte for byte: every
// command's -h text (flag names, types, defaults and help strings) and
// the stdout of one small fixed run per command, against testdata/cli.
// Temporary paths are masked as $TMP. Regenerate with -update.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"paper", "tlbsim", "wsssim", "vmsim", "tracegen", "traceinfo"} {
		bins[name] = buildCmd(t, dir, name)
	}
	trc := filepath.Join(dir, "li.trc")
	v1 := filepath.Join(dir, "li-v1.trc")
	// A spec's generator is seeded from its path, so the path is fixed.
	spec := filepath.Join("testdata", "cli", "uniform.spec")

	// Cases run in order: tracegen writes the trace the later runs read.
	// help cases pin stderr (where -h prints); the others pin stdout.
	cases := []struct {
		name, cmd string
		help      bool
		args      []string
	}{
		{"paper-help", "paper", true, []string{"-h"}},
		{"tlbsim-help", "tlbsim", true, []string{"-h"}},
		{"wsssim-help", "wsssim", true, []string{"-h"}},
		{"vmsim-help", "vmsim", true, []string{"-h"}},
		{"tracegen-help", "tracegen", true, []string{"-h"}},
		{"traceinfo-help", "traceinfo", true, []string{"-h"}},
		{"paper-table3.1", "paper", false, []string{"-scale", "0.01", "-workloads", "li", "table3.1"}},
		{"tlbsim-two-walk", "tlbsim", false, []string{"-workload", "li", "-refs", "50000", "-two", "-walk"}},
		{"tlbsim-ladder3", "tlbsim", false, []string{"-workload", "li", "-refs", "50000", "-ladder", "-sizes", "4096,32768,262144"}},
		{"tlbsim-spec", "tlbsim", false, []string{"-spec", spec, "-refs", "30000"}},
		{"wsssim", "wsssim", false, []string{"-workload", "li", "-refs", "50000"}},
		{"vmsim-two", "vmsim", false, []string{"-workload", "matrix300", "-refs", "100000", "-mem", "1M", "-two"}},
		{"tracegen-v2", "tracegen", false, []string{"-workload", "li", "-refs", "50000", "-format", "v2", "-o", trc}},
		{"traceinfo-trace", "traceinfo", false, []string{"-trace", trc}},
		{"tlbsim-trace", "tlbsim", false, []string{"-trace", trc, "-entries", "16", "-T", "6000"}},
		{"tlbsim-trace-shards2", "tlbsim", false, []string{"-trace", trc, "-two", "-shards", "2"}},
		{"paper-trace", "paper", false, []string{"-scale", "0.01", "-trace", trc, "-shards", "2", "table3.1"}},
		{"tracegen-binary", "tracegen", false, []string{"-workload", "li", "-refs", "30000", "-format", "binary", "-o", v1}},
		{"tlbsim-binary-trace", "tlbsim", false, []string{"-trace", v1, "-two"}},
		{"wsssim-binary-trace", "wsssim", false, []string{"-trace", v1}},
		{"wsssim-trace", "wsssim", false, []string{"-trace", trc, "-shards", "1"}},
		// The sharded static pass merges exactly: same golden as -shards 1.
		{"wsssim-trace", "wsssim", false, []string{"-trace", trc, "-shards", "3"}},
	}
	written := map[string]bool{}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bins[tc.cmd], tc.args...)
		cmd.Args[0] = tc.cmd // usage text names the program as typed, not the temp path
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%s %v: %v", tc.cmd, tc.args, err)
			}
			t.Fatalf("%s %v: exit %d\n%s", tc.cmd, tc.args, ee.ExitCode(), stderr.String())
		}
		got := stdout.String()
		if tc.help {
			if got != "" {
				t.Errorf("%s: -h wrote to stdout:\n%s", tc.name, got)
			}
			got = stderr.String()
		}
		got = strings.ReplaceAll(got, dir, "$TMP")
		path := filepath.Join("testdata", "cli", tc.name+".txt")
		if *update && !written[path] {
			written[path] = true
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing CLI golden (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s %v drifted from %s\n-- got --\n%s\n-- want --\n%s", tc.cmd, tc.args, path, got, want)
		}
	}
}
