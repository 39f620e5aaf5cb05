package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"twopage/internal/trace"
	"twopage/internal/workload"
)

// Inputs selects the source flags a command accepts beyond -workload
// and -refs, which every command has.
type Inputs uint

const (
	SpecInput  Inputs = 1 << iota // -spec: a custom workload spec file
	TraceInput                    // -trace and -format: a trace file
)

// specRefs is the length of a -spec stream when -refs is 0.
const specRefs = 4_000_000

// Source is a command's source flags. Spec, Trace and Format are nil
// when the command does not accept them.
type Source struct {
	Workload, Spec, Trace, Format *string
	Refs                          *uint64
}

// SourceFlags registers -workload and -refs, plus the flags in selects.
func (c *Command) SourceFlags(in Inputs) *Source {
	s := &Source{
		Workload: c.Flags.String("workload", "", "synthetic workload name"),
		Refs:     c.Flags.Uint64("refs", 0, "trace length (0 = workload default)"),
	}
	if in&SpecInput != 0 {
		s.Spec = c.Flags.String("spec", "", "custom workload spec file (see workload.Parse)")
	}
	if in&TraceInput != 0 {
		s.Trace = c.Flags.String("trace", "", "trace file instead of a workload")
		s.Format = c.Flags.String("format", "auto", "trace file format: auto, v2, binary, or text")
	}
	return s
}

// Stream is an opened source.
type Stream struct {
	// Reader is the stream itself: the trace package's own reader, so
	// decode counters and the v2 fast paths stay visible to callers.
	Reader trace.Reader
	// Name is the workload name, spec path or trace path.
	Name string
	// Refs is the stream's length: -refs (or the default) for a
	// generated stream, the reference count of a v2 trace file, and 0
	// for a binary or text trace, whose length is unknown until read.
	// -refs does not truncate a trace file.
	Refs uint64
	// File is the memory-mapped v2 trace file (random access for
	// -shards); nil for every other source.
	File *trace.File
	// Closer releases the trace file behind the stream, if any.
	io.Closer
}

// Open resolves the flags into a stream: -trace first, then -spec, then
// -workload. Naming none of them, an unknown -workload name or an
// unknown -format is a usage error.
func (s *Source) Open() (*Stream, error) {
	switch {
	case s.Trace != nil && *s.Trace != "":
		return openTrace(*s.Trace, *s.Format)
	case s.Spec != nil && *s.Spec != "":
		text, err := os.ReadFile(*s.Spec)
		if err != nil {
			return nil, err
		}
		n := s.refsOr(specRefs)
		r, err := workload.Parse(*s.Spec, n, string(text))
		if err != nil {
			return nil, err
		}
		return &Stream{Reader: r, Name: *s.Spec, Refs: n, Closer: io.NopCloser(nil)}, nil
	case *s.Workload != "":
		spec, err := workload.Get(*s.Workload)
		if err != nil {
			return nil, Usage("-workload", err)
		}
		n := s.refsOr(spec.DefaultRefs)
		return &Stream{Reader: spec.New(n), Name: spec.Name, Refs: n, Closer: io.NopCloser(nil)}, nil
	}
	return nil, Usagef("-workload", "no source given (workloads: %s)", strings.Join(workload.Names(), ", "))
}

// refsOr is -refs, or def when -refs is 0.
func (s *Source) refsOr(def uint64) uint64 {
	if *s.Refs == 0 {
		return def
	}
	return *s.Refs
}

// openTrace opens a trace file in the given format ("auto" sniffs it).
func openTrace(path, format string) (*Stream, error) {
	r, closer, err := trace.OpenPath(path, format)
	if errors.Is(err, trace.ErrFormat) {
		return nil, Usage("-format", err)
	}
	if err != nil {
		return nil, err
	}
	st := &Stream{Reader: r, Name: path, Closer: closer}
	if mr, ok := r.(*trace.MapReader); ok {
		st.File = mr.File()
		st.Refs = st.File.Refs()
	}
	return st, nil
}

// RegisterTrace makes a trace file available to the experiments as the
// workload trace:<basename>, returning that name. v2 files are
// memory-mapped and shared across all concurrent passes; binary and
// text traces are decoded once into memory and replayed from the slice.
func RegisterTrace(path string) (string, error) {
	name := "trace:" + strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	st, err := openTrace(path, "auto")
	if err != nil {
		return "", err
	}
	if st.File != nil {
		return name, workload.RegisterFile(name, st.File) // the mapping stays open for the run
	}
	defer st.Close()
	var refs []trace.Ref
	if _, err := trace.Drain(st.Reader, func(batch []trace.Ref) {
		refs = append(refs, batch...)
	}); err != nil {
		return "", fmt.Errorf("reading %s: %w", path, err)
	}
	desc := fmt.Sprintf("trace file %s (%d refs, in-memory replay)", path, len(refs))
	return name, workload.RegisterSource(name, desc, uint64(len(refs)), false,
		func(uint64) trace.Reader { return trace.NewSliceReader(refs) })
}
