package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fuzzExcluded are the flags FuzzTLBSimFlags never draws: the ones that
// write files (-cpuprofile, -memprofile, -stats) and the source flags,
// since every vector runs over -workload li (a missing -trace or -spec
// file is an I/O failure, exit 1, not a usage error).
var fuzzExcluded = map[string]bool{
	"cpuprofile": true, "memprofile": true, "stats": true,
	"workload": true, "spec": true, "trace": true, "format": true,
}

// maxFuzzRefs bounds -refs so each vector is a short run.
const maxFuzzRefs = 20_000

// realFlags lists tlbsim's flag names and value types ("" for booleans)
// as its own -h text prints them.
func realFlags(t testing.TB) (names, types []string) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)(?: (\S+))?$`).FindAllStringSubmatch(stderr.String(), -1) {
		if !fuzzExcluded[m[1]] {
			names, types = append(names, m[1]), append(types, m[2])
		}
	}
	if len(names) < 15 {
		t.Fatalf("parsed only %d flags from -h:\n%s", len(names), stderr.String())
	}
	return names, types
}

// drawArgs turns fuzz input into a flag vector. Tokens are separated by
// spaces; each is "name" or "name=value". A name that is not one of
// tlbsim's flags picks one by its bytes, so every token is a real flag.
// A bare non-boolean flag gets an empty value.
func drawArgs(names, types []string, input string) []string {
	args := []string{"-workload", "li", "-refs", strconv.Itoa(maxFuzzRefs)}
	for _, tok := range strings.Fields(input) {
		name, value, hasValue := strings.Cut(tok, "=")
		i := indexOf(names, name)
		if i < 0 {
			sum := 0
			for _, b := range []byte(name) {
				sum += int(b)
			}
			i = sum % len(names)
		}
		switch {
		case names[i] == "refs":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil || n == 0 || n > maxFuzzRefs {
				n = 1 + n%maxFuzzRefs
			}
			value = strconv.FormatUint(n, 10)
		case types[i] == "" && !hasValue:
			args = append(args, "-"+names[i])
			continue
		}
		args = append(args, "-"+names[i]+"="+value)
	}
	return args
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// FuzzTLBSimFlags runs tlbsim in-process over flag vectors drawn from
// its real flag set: every vector must exit 0, or exit 2 with a
// one-line message. A panic fails the fuzz target by itself.
func FuzzTLBSimFlags(f *testing.F) {
	names, types := realFlags(f)
	for _, seed := range []string{
		"",
		"two walk",
		"two wss pt",
		"two ladder sizes=4096,32768 wss",
		"ladder sizes=4096,32768,262144 index=class2",
		"ladder sizes=4096,32768 walk walkpwc=-1 walkmem=-1",
		"sizes=4096,16384,65536,262144 index=class3 entries=64 ways=4",
		"two T=-5",
		"two T=9223372036854775807",
		"two threshold=0",
		"refs=1 two",
		"pagesize=3000",
		"pagesize=9223372036854775808",
		"entries=0 ways=3",
		"entries=1099511627776",
		"index=bogus",
		"sizes=4096,x",
		"two walk walkmem=3000",
		"walk",
		"shards=2 warmup=5",
		"listworkloads",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		args := drawArgs(names, types, input)
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		msg := stderr.String()
		switch {
		case code == 0:
		case code == 2 && strings.Count(msg, "\n") == 1 && strings.HasSuffix(msg, "\n"):
		default:
			t.Fatalf("tlbsim %s: exit %d, want 0, or 2 with one line; stderr:\n%s",
				strings.Join(args, " "), code, msg)
		}
	})
}
