package trace

import (
	"encoding/hex"
	"strings"
	"testing"
)

// parseTraceparentHex is the parser as it stood on encoding/hex, which
// also accepts uppercase digits: the fuzz target's oracle for every
// header that differs from the spec's lowercase form only in case.
func parseTraceparentHex(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	var ver, flags [1]byte
	if len(h) != traceparentLen || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	if _, err := hex.Decode(ver[:], []byte(h[0:2])); err != nil || ver[0] == 0xff {
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return TraceID{}, sid, false
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// FuzzParseTraceparent: parsing never panics; it accepts exactly what
// the encoding/hex parser accepts once uppercase hex digits are
// refused, as the W3C spec requires; every accepted header round-trips
// byte for byte through FormatTraceparent except for the version and
// flags fields, which it writes as 00 and 01; and FormatTraceparent
// agrees with the "00-"+hex+"-"+hex+"-01" concatenation it replaced.
// Seed corpus: testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		rtid, rsid, rok := parseTraceparentHex(h)
		if want := rok && strings.ToLower(h) == h; ok != want {
			t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", h, ok, want)
		}
		if !ok {
			if !tid.IsZero() || !sid.IsZero() {
				t.Fatalf("rejected %q but returned IDs %s %s", h, tid, sid)
			}
			return
		}
		if tid != rtid || sid != rsid {
			t.Fatalf("ParseTraceparent(%q) = %s %s, encoding/hex reads %s %s", h, tid, sid, rtid, rsid)
		}
		got := FormatTraceparent(tid, sid)
		if want := "00-" + h[3:52] + "-01"; got != want {
			t.Fatalf("FormatTraceparent round trip of %q = %q, want %q", h, got, want)
		}
		if old := "00-" + hex.EncodeToString(tid[:]) + "-" + hex.EncodeToString(sid[:]) + "-01"; got != old {
			t.Fatalf("FormatTraceparent = %q, concatenation gives %q", got, old)
		}
	})
}

// TestFormatTraceparentAllocs: a traceparent is one string. Skipped
// under -race.
func TestFormatTraceparentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	tid, sid := NewTraceID(), NewSpanID()
	if n := testing.AllocsPerRun(100, func() { FormatTraceparent(tid, sid) }); n != 1 {
		t.Errorf("FormatTraceparent allocates %.0f times, want 1", n)
	}
}
