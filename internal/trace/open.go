package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrFormat reports a format name OpenPath does not know.
var ErrFormat = errors.New("trace: unknown format")

// OpenPath opens a trace file in any of the repository's formats and
// returns a Reader over it. format selects the decoder: "v2", "binary"
// (the v1 interleaved format), "text", or "auto" ("" is auto), which
// sniffs the magic — "TPV2" → v2, "TP92" → v1, anything else → text.
//
// v2 files are memory-mapped (the returned Reader is a *MapReader over
// a File); the other formats stream through the open descriptor. The
// returned io.Closer releases whichever resource backs the Reader and
// must be closed after the last Read.
func OpenPath(path, format string) (Reader, io.Closer, error) {
	switch format {
	case "", "auto":
		magic, err := sniff(path)
		if err != nil {
			return nil, nil, err
		}
		switch magic {
		case v2Magic:
			format = "v2"
		case binaryMagic:
			format = "binary"
		default:
			format = "text"
		}
	case "v2", "binary", "text":
	default:
		return nil, nil, fmt.Errorf("%w %q (want auto, v2, binary, or text)", ErrFormat, format)
	}
	if format == "v2" {
		f, err := OpenFile(path)
		if err != nil {
			if errors.Is(err, ErrNotV2) {
				return nil, nil, fmt.Errorf("trace: %s is not a v2 trace (try -format auto)", path)
			}
			return nil, nil, err
		}
		return f.Reader(), f, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if format == "text" {
		return NewTextReader(f), f, nil
	}
	return NewBinaryReader(f), f, nil
}

// sniff reads the first four bytes of path. Short files sniff as text
// (their decoders produce the precise error).
func sniff(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var magic [4]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return "", err
	}
	return string(magic[:n]), nil
}
