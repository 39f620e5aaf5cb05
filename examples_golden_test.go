package twopage_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden runs every program under examples/ and pins its
// stdout byte for byte against testdata/examples/<name>.txt. Each
// example is deterministic and finishes in about a second. Regenerate
// with -update.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if out, err := exec.Command("go", "build", "-o", bin, "./examples/"+name).CombinedOutput(); err != nil {
				t.Fatalf("build %s: %v\n%s", name, err, out)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.String())
			}
			path := filepath.Join("testdata", "examples", name+".txt")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing example golden (run with -update): %v", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("examples/%s drifted from %s\n-- got --\n%s\n-- want --\n%s", name, path, got, want)
			}
		})
	}
}
