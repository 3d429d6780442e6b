package trace

import "encoding/hex"

// The W3C Trace Context traceparent header, version 00:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//	^  ^                                ^                ^
//	|  trace-id (32 hex)                parent-id (16)   flags (2)
//	version
//
// Only the version-00 fixed layout is accepted, in lowercase hex as the
// spec requires; the all-zero trace or span ID is invalid per the spec,
// as is version "ff".

const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// Header is the traceparent header's canonical key: net/http looks it
// up and sets it without re-canonicalizing (an allocation).
const Header = "Traceparent"

// ParseTraceparent parses a W3C traceparent header. ok is false for
// malformed input: wrong layout, fields that are not lowercase hex,
// version ff, or an all-zero trace/span ID — callers then mint a fresh
// trace instead.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	var ver, flags [1]byte
	if len(h) != traceparentLen || h[2] != '-' || h[35] != '-' || h[52] != '-' ||
		!decodeHex(ver[:], h[0:2]) || ver[0] == 0xff || !decodeHex(flags[:], h[53:55]) ||
		!decodeHex(tid[:], h[3:35]) || !decodeHex(sid[:], h[36:52]) ||
		tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// FormatTraceparent renders a version-00 traceparent header with the
// sampled flag set.
func FormatTraceparent(t TraceID, s SpanID) string {
	var b [traceparentLen]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], t[:])
	b[35] = '-'
	hex.Encode(b[36:52], s[:])
	copy(b[52:], "-01")
	return string(b[:])
}

// decodeHex decodes src, 2*len(dst) lowercase hex digits, into dst.
func decodeHex(dst []byte, src string) bool {
	for i := range dst {
		hi, ok1 := fromHex(src[2*i])
		lo, ok2 := fromHex(src[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func fromHex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}
