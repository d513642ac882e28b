package dataset

import (
	"bytes"
	"compress/gzip"
	"errors"
	"strings"
	"testing"

	"graphdiam/internal/gio"
)

// gzBytes gzips b.
func gzBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeStreamVerifiesGzipTrailer pins the trailer bugfix: the
// binary decoder reads exactly its declared byte count and stops, so
// before the drain-and-close check a gzip member whose CRC-32 trailer
// was corrupted ingested silently. It must now fail, and the same bytes
// with an honest trailer must still decode.
func TestDecodeStreamVerifiesGzipTrailer(t *testing.T) {
	g := mustGen(t, "mesh:8", 1)
	var bin bytes.Buffer
	if err := gio.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	gz := gzBytes(t, bin.Bytes())

	// Control: the honest stream decodes.
	if _, format, err := DecodeStream(bytes.NewReader(gz), FormatAuto); err != nil || format != FormatBinary {
		t.Fatalf("honest gzip binary: format=%q err=%v", format, err)
	}

	// Flip a bit in the stored CRC-32 (bytes len-8..len-5 of a gzip
	// member). The compressed payload is untouched, so the decode
	// itself succeeds — only the trailer check can catch this.
	bad := append([]byte(nil), gz...)
	bad[len(bad)-8] ^= 0x01
	if _, _, err := DecodeStream(bytes.NewReader(bad), FormatAuto); err == nil {
		t.Fatal("corrupted gzip CRC ingested silently")
	} else {
		var bi *BadInputError
		if !errors.As(err, &bi) {
			t.Fatalf("trailer corruption not classified as bad input: %v", err)
		}
	}

	// A stream cut before its trailer must fail too, explicit format or
	// not.
	cut := gz[:len(gz)-6]
	if _, _, err := DecodeStream(bytes.NewReader(cut), FormatBinary); err == nil {
		t.Fatal("truncated gzip stream ingested silently")
	}

	// End-to-end: the catalog refuses the corrupt upload and stays empty.
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ingest("bad", bytes.NewReader(bad), FormatAuto, ""); err == nil {
		t.Fatal("catalog ingested a gzip stream with a corrupt trailer")
	}
	if got := c.names(); len(got) != 0 {
		t.Fatalf("catalog entries after refused ingest: %v", got)
	}
}

// TestClassifyFormatTruncatedHead pins the sniffing bugfix: a 512-byte
// peek can cut the first line mid-token, and the cut fragment must never
// decide the format.
func TestClassifyFormatTruncatedHead(t *testing.T) {
	// A head that is one giant token cut mid-way: the old classifier
	// fell through to edgelist on the partial fragment and the parse
	// failed with a baffling error. Now: no complete line → explicit-
	// format error.
	if got, err := ClassifyFormat([]byte(strings.Repeat("c", sniffLen)), true); err == nil {
		t.Fatalf("mid-token head classified as %q, want explicit-format error", got)
	} else if !strings.Contains(err.Error(), "explicit format") {
		t.Fatalf("unhelpful error %v", err)
	}

	// A complete first line still decides even when the tail is cut.
	head := "% metis comment\n3 2 001\n1 2" // cut mid second data line
	if got, err := ClassifyFormat([]byte(head), true); err != nil || got != FormatMETIS {
		t.Fatalf("ClassifyFormat = %q, %v; want metis from the complete first line", got, err)
	}

	// The cut fragment itself must be ignored: these bytes end with what
	// looks like the start of a DIMACS problem line, but it is partial.
	head = "# edge list\n0 1 1\np s" // "p s…" is a cut row, not a header
	if got, err := ClassifyFormat([]byte(head), true); err != nil || got != FormatEdgeList {
		t.Fatalf("ClassifyFormat = %q, %v; want edgelist (partial tail dropped)", got, err)
	}

	// Untruncated input keeps its permissive legacy behavior.
	if got, err := ClassifyFormat(nil, false); err != nil || got != FormatEdgeList {
		t.Fatalf("empty untruncated head = %q, %v", got, err)
	}

	// End-to-end through DecodeStream on a VALID DIMACS file whose first
	// comment line overruns the sniff window: auto-sniff must error
	// cleanly (the cut "c xxxx…" fragment no longer decides), and the
	// explicit format still works on the same bytes.
	longFirst := "c " + strings.Repeat("x", sniffLen+40) + "\np sp 3 2\na 1 2 1\n"
	if _, _, err := DecodeStream(strings.NewReader(longFirst), FormatAuto); err == nil {
		t.Fatal("unsniffable stream auto-ingested")
	}
	if _, format, err := DecodeStream(strings.NewReader(longFirst), FormatDIMACS); err != nil || format != FormatDIMACS {
		t.Fatalf("explicit dimacs on the same stream: format=%q err=%v", format, err)
	}

	// And gzip-wrapped: the decompressed prefix is subject to the same
	// truncation rules.
	if _, _, err := DecodeStream(bytes.NewReader(gzBytes(t, []byte(longFirst))), FormatAuto); err == nil {
		t.Fatal("unsniffable gzipped stream auto-ingested")
	}
	if _, format, err := DecodeStream(bytes.NewReader(gzBytes(t, []byte(longFirst))), FormatDIMACS); err != nil || format != FormatDIMACS {
		t.Fatalf("explicit dimacs on gzipped stream: format=%q err=%v", format, err)
	}
}

// TestIngestErrorClassification pins which failures are the client's
// fault (BadInputError) and which are the server's.
func TestIngestErrorClassification(t *testing.T) {
	c, err := Open(t.TempDir(), Options{ByteBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var bi *BadInputError
	if _, err := c.Ingest("../evil", strings.NewReader("0 1 1\n"), FormatAuto, ""); !errors.As(err, &bi) {
		t.Fatalf("bad name: %v, want BadInputError", err)
	}
	if _, err := c.Ingest("x", strings.NewReader("0 1 1\n"), "yaml", ""); !errors.As(err, &bi) {
		t.Fatalf("unknown format: %v, want BadInputError", err)
	}
	if _, err := c.Ingest("x", strings.NewReader("not a graph at all ???\n"), FormatAuto, ""); !errors.As(err, &bi) {
		t.Fatalf("garbage body: %v, want BadInputError", err)
	}
	for _, empty := range []string{"", "# only a comment\n"} {
		if _, err := c.Ingest("x", strings.NewReader(empty), FormatAuto, ""); !errors.As(err, &bi) {
			t.Fatalf("zero-node body %q: %v, want BadInputError", empty, err)
		}
	}
	if len(c.List()) != 0 {
		t.Fatalf("rejected ingests left entries behind: %v", c.names())
	}
	// Budget exhaustion is a capacity condition, NOT bad input.
	_, err = c.Ingest("x", strings.NewReader("0 1 1\n"), FormatAuto, "")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget rejection: %v, want ErrBudgetExceeded", err)
	}
	if errors.As(err, &bi) {
		t.Fatal("budget rejection misclassified as the client's fault")
	}
}
