package cli

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/obs"
)

func TestStartProfilesNoOp(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := startProfiles(filepath.Join(t.TempDir(), "no", "such", "dir", "c.prof"), ""); err == nil {
		t.Fatal("want error for uncreatable profile path")
	}
}

// TestRunExitCodes pins the exit convention and its one-line messages.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		err  error
		code int
		want string // stderr, exactly
	}{
		{"ok", nil, nil, 0, ""},
		{"usage", nil, Usagef("-n", "must be positive, got %d", -1), 2, "demo: -n: must be positive, got -1\n"},
		{"wrapped-usage", nil, errors.Join(Usagef("-n", "bad")), 2, "demo: -n: bad\n"},
		{"failure", nil, errors.New("disk full"), 1, "demo: disk full\n"},
		{"bad-value", []string{"-n", "x"}, nil, 2, "demo: invalid value \"x\" for flag -n: parse error\n"},
		{"unknown-flag", []string{"-bogus"}, nil, 2, "demo: flag provided but not defined: -bogus\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := New("demo", &stdout, &stderr)
			cmd.Flags.Int("n", 1, "a number")
			code := cmd.Run(tc.args, func(context.Context) (*obs.Report, error) { return nil, tc.err })
			if code != tc.code || stderr.String() != tc.want {
				t.Errorf("exit %d, stderr %q; want %d, %q", code, stderr.String(), tc.code, tc.want)
			}
		})
	}
}

func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cmd := New("demo", &stdout, &stderr)
	cmd.Flags.Int("n", 1, "a number")
	if code := cmd.Run([]string{"-h"}, nil); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	want := "Usage of demo:\n  -n int\n    \ta number (default 1)\n"
	if stdout.Len() != 0 || stderr.String() != want {
		t.Errorf("-h: stdout %q, stderr %q; want stderr %q", stdout.String(), stderr.String(), want)
	}
}

// A report is written even when the body fails; -stats goes to stderr
// for "-".
func TestRunWritesReportOnFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cmd := New("demo", &stdout, &stderr)
	cmd.ObserveFlags()
	code := cmd.Run([]string{"-stats", "-"}, func(context.Context) (*obs.Report, error) {
		return obs.New("demo"), errors.New("boom")
	})
	if code != 1 || !strings.Contains(stderr.String(), `"tool": "demo"`) || !strings.HasSuffix(stderr.String(), "demo: boom\n") {
		t.Errorf("exit %d, stderr:\n%s", code, stderr.String())
	}
}

func TestWindow(t *testing.T) {
	for _, tc := range []struct {
		t    uint64
		refs uint64
		want int // 0: usage error
	}{
		{0, 8000, 1000},
		{500, 8000, 500},
		{0, 7, 0},
		{0, 8 * (MaxWindow + 1), 0},
		{MaxWindow, 0, MaxWindow},
		{MaxWindow + 1, 0, 0},
		{1<<64 - 1, 0, 0},
	} {
		got, err := Window(tc.t, tc.refs)
		var ue *UsageError
		if tc.want == 0 {
			if !errors.As(err, &ue) || ue.Flag != "-T" {
				t.Errorf("Window(%d, %d) = %d, %v; want a -T usage error", tc.t, tc.refs, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("Window(%d, %d) = %d, %v; want %d", tc.t, tc.refs, got, err, tc.want)
		}
	}
	if _, err := Window(-5, 1000); err == nil {
		t.Error("Window(-5) accepted a negative window")
	}
}

func TestSizes(t *testing.T) {
	got, err := Sizes("4096, 32768")
	if err != nil || len(got) != 2 || got[1] != addr.Size32K {
		t.Errorf("Sizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "4096,x", "3000", "-1"} {
		if _, err := Sizes(bad); err == nil || !strings.HasPrefix(err.Error(), "-sizes: ") {
			t.Errorf("Sizes(%q) = %v, want a -sizes usage error", bad, err)
		}
	}
}

func TestTLBNamesTheFlag(t *testing.T) {
	if _, err := TLB(32, 2, "class1", addr.SizeClasses{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		entries, ways int
		index, flag   string
	}{
		{0, 0, "exact", "-entries"},
		{1 << 40, 0, "exact", "-entries"},
		{16, 3, "exact", "-ways"},
		{16, -1, "exact", "-ways"},
		{16, 0, "bogus", "-index"},
		{16, 2, "class2", "-index"}, // two default classes: 0 and 1
	} {
		_, err := TLB(tc.entries, tc.ways, tc.index, addr.SizeClasses{})
		var ue *UsageError
		if !errors.As(err, &ue) || ue.Flag != tc.flag {
			t.Errorf("TLB(%d, %d, %q) = %v, want a %s usage error", tc.entries, tc.ways, tc.index, err, tc.flag)
		}
	}
}

func TestWalkNamesTheFlag(t *testing.T) {
	cfg, err := Walk(-1, 4096)
	if err != nil || cfg.PWCEntries != 0 || cfg.MemBytes != 4096 {
		t.Fatalf("Walk(-1, 4096) = %+v, %v", cfg, err)
	}
	for _, tc := range []struct {
		pwc, mem int
		flag     string
	}{
		{1 << 40, 0, "-walkpwc"},
		{0, 3000, "-walkmem"},
		{0, 1 << 40, "-walkmem"},
	} {
		_, err := Walk(tc.pwc, tc.mem)
		var ue *UsageError
		if !errors.As(err, &ue) || ue.Flag != tc.flag {
			t.Errorf("Walk(%d, %d) = %v, want a %s usage error", tc.pwc, tc.mem, err, tc.flag)
		}
	}
}
