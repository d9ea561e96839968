package pageserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"socrates/internal/btree"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/socerr"
)

// This file implements the storage-function pushdown of §4.1.5: "every
// database function that can be offloaded to storage (whether backup,
// checkpoint, IO filtering, etc.) relieves the Primary Compute node". The
// paper's §8 lists bulk operations in page servers as in-progress work;
// ScanCells is the IO-filtering primitive: the page server scans a page
// range locally (one stride-preserving I/O) and ships back only the
// matching cells' count and bytes, instead of 8 KiB pages.

// ScanResult is the outcome of a pushed-down scan.
type ScanResult struct {
	// Matched is the number of leaf cells with key in [Lo, Hi).
	Matched int
	// Bytes is the total size of matching cell payloads.
	Bytes int64
	// PagesScanned counts leaf pages visited.
	PagesScanned int
}

// ScanCells scans the page range [start, start+count) for leaf cells whose
// key falls in [lo, hi) (nil hi = unbounded) at an LSN at least minLSN.
// Non-leaf pages in the range are skipped: the caller offloads by physical
// range, exactly how a table scan over a partition would be pushed down.
func (s *Server) ScanCells(ctx context.Context, start page.ID, count int, lo, hi []byte, minLSN page.LSN) (ScanResult, error) {
	ctx, sp := s.cfg.Obs.Tracer.JoinSpan(ctx, obs.TierPageServer, "pageserver.scancells")
	defer sp.End()
	t0 := time.Now()
	defer s.cfg.Obs.Metrics.Histogram("pageserver.scancells.latency").Since(t0)
	var res ScanResult
	if start < s.lo || start+page.ID(count) > s.hi {
		return res, fmt.Errorf("pageserver: scan range outside partition")
	}
	if !s.waitApplied(ctx, minLSN, 5*time.Second) {
		return res, socerr.Timeoutf("pageserver: apply lag on pushdown scan")
	}
	s.charge(time.Duration(count) * 2 * time.Microsecond)
	pages, err := s.cache.ReadRangeAvailable(start, count)
	if err != nil {
		return res, err
	}
	for _, pg := range pages {
		if pg.Type != page.TypeLeaf {
			continue
		}
		res.PagesScanned++
		err := btree.RangeCells(pg, func(k, v []byte) bool {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return true
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return true
			}
			res.Matched++
			res.Bytes += int64(len(v))
			return true
		})
		if err != nil {
			// A mid-range page that is not cell-structured (e.g. torn):
			// surface it, the caller retries.
			return res, err
		}
	}
	return res, nil
}

// Key-range codec for the pushdown request payload.

// EncodeKeyRange packs [lo, hi) for a MsgScanCells payload.
func EncodeKeyRange(lo, hi []byte) []byte {
	buf := make([]byte, 0, 4+len(lo)+len(hi))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(lo)))
	buf = append(buf, lo...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(hi)))
	buf = append(buf, hi...)
	return buf
}

// DecodeKeyRange unpacks a MsgScanCells payload.
func DecodeKeyRange(buf []byte) (lo, hi []byte, err error) {
	if len(buf) < 2 {
		return nil, nil, errors.New("pageserver: short key range")
	}
	n := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	if len(buf) < n+2 {
		return nil, nil, errors.New("pageserver: truncated key range lo")
	}
	if n > 0 {
		lo = append([]byte(nil), buf[:n]...)
	}
	buf = buf[n:]
	m := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	if len(buf) != m {
		return nil, nil, errors.New("pageserver: truncated key range hi")
	}
	if m > 0 {
		hi = append([]byte(nil), buf...)
	}
	return lo, hi, nil
}

// handleScanCells serves MsgScanCells.
func (s *Server) handleScanCells(ctx context.Context, req *rbio.Request) *rbio.Response {
	lo, hi, err := DecodeKeyRange(req.Payload)
	if err != nil {
		return rbio.Errorf("scan-cells: %v", err)
	}
	res, err := s.ScanCells(ctx, req.Page, int(req.MaxBytes), lo, hi, req.LSN)
	if err != nil {
		return rbio.Retryf("scan-cells: %v", err)
	}
	resp := rbio.Ok()
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out[0:8], uint64(res.Matched))
	binary.LittleEndian.PutUint64(out[8:16], uint64(res.Bytes))
	binary.LittleEndian.PutUint64(out[16:24], uint64(res.PagesScanned))
	resp.Payload = out
	return resp
}

// DecodeScanResult parses a MsgScanCells response payload.
func DecodeScanResult(buf []byte) (ScanResult, error) {
	if len(buf) != 24 {
		return ScanResult{}, errors.New("pageserver: bad scan result payload")
	}
	return ScanResult{
		Matched:      int(binary.LittleEndian.Uint64(buf[0:8])),
		Bytes:        int64(binary.LittleEndian.Uint64(buf[8:16])),
		PagesScanned: int(binary.LittleEndian.Uint64(buf[16:24])),
	}, nil
}
