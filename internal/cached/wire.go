package cached

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"convexcache/internal/trace"
)

// Wire grammar of the cache endpoint — one request per line, fields joined
// by exactly one space:
//
//	line   := op " " tenant " " key
//	op     := "GET" | "PUT"
//	tenant := decimal integer, no sign, no leading zeros (except "0")
//	key    := 1..MaxKeyLen printable non-space ASCII bytes (0x21..0x7e)
//
// The grammar is strict on purpose: a deterministic parse/format round-trip
// (FormatRequest(ParseRequest(x)) == x) keeps the fuzz target honest and the
// request logs reproducible. Lines end in "\n"; a trailing "\r" is stripped
// so CRLF clients work. Blank lines are ignored.

// MaxKeyLen bounds the key length accepted on the wire.
const MaxKeyLen = 256

// maxBatchLines bounds how many request lines one body may carry.
const maxBatchLines = 1 << 20

// The "GET " and "PUT " op fields as little-endian 32-bit words, so the op
// check is one load and one compare.
const (
	wordGet = 'G' | 'E'<<8 | 'T'<<16 | ' '<<24
	wordPut = 'P' | 'U'<<8 | 'T'<<16 | ' '<<24
)

// ParseRequest parses one line (without the trailing newline). tenants > 0
// bounds the accepted tenant range; tenants <= 0 skips the range check
// (used by the fuzz target, which has no configured universe).
func ParseRequest(line []byte, tenants int) (Request, error) {
	var r Request
	_, err := parseInto(&r, line, tenants, false)
	return r, err
}

// parseInto parses the request that starts b into *r, so a batch parses
// straight into its slot of the request slice. It is one forward scan: a
// 4-byte compare for the op and its separator, the tenant digits
// accumulated up to the next separator, then the key bytes checked eight
// at a time up to the first byte outside 0x21..0x7e.
//
// Without batch, all of b is the line. With batch, the line ends at the
// first '\n', which the key scan finds as the first byte past the key (a
// '\r' right before it, or at the end of b, is dropped), and the returned
// length includes the newline. A batch line is accepted exactly when
// ParseRequest accepts the isolated line, with the same fields; when it is
// not, the error may name bytes past the line, so AppendBatch re-runs the
// isolated line through ParseRequest to name what is wrong with it.
func parseInto(r *Request, b []byte, tenants int, batch bool) (int, error) {
	if len(b) < 4 {
		return 0, opError(b)
	}
	switch binary.LittleEndian.Uint32(b) {
	case wordGet:
		r.Op = OpGet
	case wordPut:
		r.Op = OpPut
	default:
		return 0, opError(b)
	}
	i, v := 4, 0
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + int(b[i]-'0')
		i++
	}
	end := i
	if i == len(b) || b[i] != ' ' {
		// The tenant field holds a non-digit; it still ends at the next
		// space, and the checks below name what is wrong with it.
		sp := bytes.IndexByte(b[i:], ' ')
		if sp < 0 {
			return 0, fmt.Errorf("cached: missing tenant separator in %q", clip(b))
		}
		end = i + sp
	}
	if n := end - 4; n == 0 || n > 9 || (n > 1 && b[4] == '0') || end != i {
		return 0, tenantError(b[4:end])
	}
	if tenants > 0 && v >= tenants {
		return 0, fmt.Errorf("cached: tenant %d out of range [0,%d)", v, tenants)
	}
	r.Tenant = trace.Tenant(v)
	j := end + 1 + printablePrefix(b[end+1:])
	key, n := b[end+1:j], j
	if j < len(b) {
		switch c := b[j]; {
		case batch && c == '\n':
			n = j + 1
		case batch && c == '\r' && (j+1 == len(b) || b[j+1] == '\n'):
			n = min(j+2, len(b))
		case len(b)-end-1 > MaxKeyLen:
			return 0, fmt.Errorf("cached: key longer than %d bytes", MaxKeyLen)
		default:
			return 0, fmt.Errorf("cached: key byte %#02x outside printable ASCII", c)
		}
	}
	if len(key) == 0 {
		return 0, fmt.Errorf("cached: empty key in %q", clip(b))
	}
	if len(key) > MaxKeyLen {
		return 0, fmt.Errorf("cached: key longer than %d bytes", MaxKeyLen)
	}
	r.Key = key
	return n, nil
}

// printablePrefix returns the length of the run of bytes in 0x21..0x7e that
// starts b, testing eight bytes per step while eight remain.
func printablePrefix(b []byte) int {
	i := 0
	for ; len(b)-i >= 8; i += 8 {
		if m := nonPrintable(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for i < len(b) && b[i]-0x21 <= 0x7e-0x21 {
		i++
	}
	return i
}

// nonPrintable flags, in bit 7 of its byte, the first byte of the
// little-endian word x outside 0x21..0x7e (bytes above it may be flagged
// too): a byte below 0x21 borrows into bit 7 when 0x21 is subtracted, one
// above 0x7e carries into it when 0x01 is added or has it set already.
func nonPrintable(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	return ((x-0x21*ones)&^x | (x + ones) | x) & highs
}

// opError names why line does not start with "GET " or "PUT ".
func opError(line []byte) error {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return fmt.Errorf("cached: missing op separator in %q", clip(line))
	}
	return fmt.Errorf("cached: unknown op %q", clip(line[:sp]))
}

// tenantError names why b is not a canonical tenant: a non-negative decimal
// of at most 9 digits (well below overflow), with no leading zero unless the
// value is exactly "0".
func tenantError(b []byte) error {
	switch {
	case len(b) == 0:
		return fmt.Errorf("cached: empty tenant")
	case len(b) > 9:
		return fmt.Errorf("cached: tenant %q too long", clip(b))
	case b[0] == '0' && len(b) > 1:
		return fmt.Errorf("cached: tenant %q has a leading zero", clip(b))
	}
	return fmt.Errorf("cached: tenant %q is not a decimal integer", clip(b))
}

// ParseBatch parses a newline-separated request body into a new slice; see
// AppendBatch.
func ParseBatch(body []byte, tenants int) ([]Request, error) {
	reqs, err := AppendBatch(nil, body, tenants)
	if err != nil {
		return nil, err
	}
	return reqs, nil
}

var newline = []byte{'\n'}

// AppendBatch parses a newline-separated request body and appends the
// requests to dst. Lines end in "\n"; a trailing "\r" is stripped and blank
// lines are skipped. Errors name the offending 1-based line; on error the
// returned slice holds dst's original requests (with whatever capacity was
// grown), so a caller can keep reusing it; like append, it may write past
// the returned length within capacity. The appended requests alias
// body — callers must keep body alive and unmodified until the batch is
// applied (Apply copies the keys it retains).
//
// dst grows at most once per call, when the first request does not fit: by
// the number of lines left, capped at len(rest)/8 + 1 (the shortest valid
// line, "GET 0 k\n", is 8 bytes) and at maxBatchLines. A body that holds no
// valid request therefore allocates nothing.
func AppendBatch(dst []Request, body []byte, tenants int) ([]Request, error) {
	base := len(dst)
	for lineNo := 1; len(body) > 0; lineNo++ {
		if lineNo > maxBatchLines {
			return dst[:base], fmt.Errorf("cached: batch exceeds %d lines", maxBatchLines)
		}
		if body[0] == '\n' {
			body = body[1:]
			continue
		}
		if body[0] == '\r' && (len(body) == 1 || body[1] == '\n') {
			body = body[min(2, len(body)):]
			continue
		}
		var n int
		var err error
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
			n, err = parseInto(&dst[len(dst)-1], body, tenants, true)
		} else {
			// Parse the first request past capacity on the stack, so a body
			// without one valid line never grows dst.
			var r Request
			if n, err = parseInto(&r, body, tenants, true); err == nil {
				rest := body[n:]
				dst = append(slices.Grow(dst, 1+min(bytes.Count(rest, newline)+1, len(rest)/8+1, maxBatchLines-lineNo)), r)
			}
		}
		if err != nil {
			return dst[:base], fmt.Errorf("line %d: %w", lineNo, lineError(body, tenants))
		}
		body = body[n:]
	}
	return dst, nil
}

// lineError names why the line that starts body was rejected, by parsing the
// isolated line on its own.
func lineError(body []byte, tenants int) error {
	line := body
	if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
		line = body[:nl]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	_, err := ParseRequest(line, tenants)
	return err
}

// FormatRequest appends the canonical wire form of r (with trailing newline)
// to dst. It is the inverse of ParseRequest for every request ParseRequest
// accepts.
func FormatRequest(dst []byte, r Request) []byte {
	if r.Op == OpPut {
		dst = append(dst, "PUT "...)
	} else {
		dst = append(dst, "GET "...)
	}
	dst = fmt.Appendf(dst, "%d ", r.Tenant)
	dst = append(dst, r.Key...)
	return append(dst, '\n')
}

// clip bounds error-message echoes of untrusted input.
func clip(b []byte) string {
	const max = 32
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
