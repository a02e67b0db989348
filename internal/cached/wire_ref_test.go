package cached

import (
	"bytes"
	"fmt"

	"convexcache/internal/trace"
)

// The two-step wire parser the single-scan ParseRequest/AppendBatch
// replaced, kept verbatim (only renamed) as the differential reference of
// FuzzCachedParseOracle: find the separators with bytes.IndexByte, then
// validate each field. Any body must get the same accept/reject, the same
// Request fields and the same error string from both.

// refParseRequest parses one line (without the trailing newline). tenants > 0
// bounds the accepted tenant range; tenants <= 0 skips the range check
// (used by the fuzz target, which has no configured universe).
func refParseRequest(line []byte, tenants int) (Request, error) {
	var r Request
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return r, fmt.Errorf("cached: missing op separator in %q", clip(line))
	}
	switch {
	case bytes.Equal(line[:sp], []byte("GET")):
		r.Op = OpGet
	case bytes.Equal(line[:sp], []byte("PUT")):
		r.Op = OpPut
	default:
		return r, fmt.Errorf("cached: unknown op %q", clip(line[:sp]))
	}
	rest := line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return r, fmt.Errorf("cached: missing tenant separator in %q", clip(line))
	}
	tenant, err := refParseTenant(rest[:sp])
	if err != nil {
		return r, err
	}
	if tenants > 0 && int(tenant) >= tenants {
		return r, fmt.Errorf("cached: tenant %d out of range [0,%d)", tenant, tenants)
	}
	r.Tenant = tenant
	key := rest[sp+1:]
	if len(key) == 0 {
		return r, fmt.Errorf("cached: empty key in %q", clip(line))
	}
	if len(key) > MaxKeyLen {
		return r, fmt.Errorf("cached: key longer than %d bytes", MaxKeyLen)
	}
	for _, c := range key {
		if c < 0x21 || c > 0x7e {
			return r, fmt.Errorf("cached: key byte %#02x outside printable ASCII", c)
		}
	}
	r.Key = key
	return r, nil
}

// refParseTenant parses a canonical non-negative decimal: digits only, no
// leading zeros unless the value is exactly "0", bounded well below
// overflow.
func refParseTenant(b []byte) (trace.Tenant, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("cached: empty tenant")
	}
	if len(b) > 9 {
		return 0, fmt.Errorf("cached: tenant %q too long", clip(b))
	}
	if b[0] == '0' && len(b) > 1 {
		return 0, fmt.Errorf("cached: tenant %q has a leading zero", clip(b))
	}
	var v int
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("cached: tenant %q is not a decimal integer", clip(b))
		}
		v = v*10 + int(c-'0')
	}
	return trace.Tenant(v), nil
}

// refParseBatch parses a newline-separated request body. Errors name the
// offending 1-based line. The returned requests alias body — callers must
// keep body alive until the batch is applied (Apply copies keys it retains).
func refParseBatch(body []byte, tenants int) ([]Request, error) {
	var reqs []Request
	lineNo := 0
	for len(body) > 0 {
		lineNo++
		if lineNo > maxBatchLines {
			return nil, fmt.Errorf("cached: batch exceeds %d lines", maxBatchLines)
		}
		line := body
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			line = body[:nl]
			body = body[nl+1:]
		} else {
			body = nil
		}
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		r, err := refParseRequest(line, tenants)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}
