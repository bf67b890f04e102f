package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fgl"
	"repro/internal/server/registry"
	"repro/internal/verify"
)

// verifyMaxTiles mirrors core.Limits' default equivalence-check bound:
// above it the program itself checks design rules only, and so does
// the benchmark.
const verifyMaxTiles = 300000

// checkTimes are the recheck's own timings.
type checkTimes struct {
	read   time.Duration // fgl.Read
	verify time.Duration // verify.Check / CheckDesignRules
}

// recheck checks the served catalogue independently of the program's
// own verification:
//   - a cursor walk over /v1/layouts returns every stored record exactly
//     once;
//   - every record's download has the record's SHA-256 as both its body
//     hash and its ETag, and revalidating that ETag answers 304 with no
//     body;
//   - every layout, read back with fgl.Read, passes verify.Check against
//     the network the benchmark built (design rules only above
//     verifyMaxTiles), with the record's width and height.
//
// Each record is one attempted operation; every mismatch is a failure.
func (b *bencher) recheck(ctx context.Context, l *live, refs map[string]bench.Benchmark) (checkTimes, error) {
	var ct checkTimes
	recs := l.st.Snapshot()
	walked := map[string]int{}
	cursor := ""
	for {
		path := "/v1/layouts?limit=100"
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		var page struct {
			Layouts []struct {
				ID string `json:"id"`
			} `json:"layouts"`
			NextCursor string `json:"next_cursor"`
		}
		if err := l.getJSON(ctx, path, &page); err != nil {
			return ct, fmt.Errorf("cursor walk: %w", err)
		}
		for _, r := range page.Layouts {
			walked[r.ID]++
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	for id, n := range walked {
		if n != 1 {
			b.tally.fail("cursor walk returned %s %d times", id, n)
		}
	}
	if len(walked) != len(recs) {
		b.tally.fail("cursor walk returned %d records, the store holds %d", len(walked), len(recs))
	}

	// The records are checked on one worker per connection.
	var (
		mu   sync.Mutex // guards ct
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(recs) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				read, check := b.recheckOne(ctx, l, recs[i], walked[recs[i].ID], refs)
				mu.Lock()
				ct.read += read
				ct.verify += check
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ct, ctx.Err()
}

// recheckOne checks one record, walked the number of times the cursor
// walk returned it, against a network of its own built from refs, and
// returns the time its fgl.Read and its verification took.
func (b *bencher) recheckOne(ctx context.Context, l *live, rec registry.Record, walked int, refs map[string]bench.Benchmark) (read, check time.Duration) {
	if walked != 1 {
		b.tally.fail("%s: missing from the cursor walk", rec.ID)
		return 0, 0
	}
	body, msg := b.fetchChecked(ctx, l, rec.ID, rec.Hash)
	if msg != "" {
		b.tally.fail("%s: %s", rec.ID, msg)
		return 0, 0
	}
	key := rec.Set + "/" + rec.Name
	bm, ok := refs[key]
	if !ok {
		b.tally.fail("%s: no reference network for %s", rec.ID, key)
		return 0, 0
	}
	ref := bm.Build()
	start := time.Now()
	lay, err := fgl.Read(bytes.NewReader(body))
	read = time.Since(start)
	if err != nil {
		b.tally.fail("%s: fgl.Read: %v", rec.ID, err)
		return read, 0
	}
	start = time.Now()
	if lay.NumTiles() <= verifyMaxTiles {
		err = verify.Check(lay, ref)
	} else {
		err = verify.CheckDesignRules(lay).Error()
	}
	check = time.Since(start)
	switch w, h := lay.BoundingBox(); {
	case err != nil:
		b.tally.fail("%s: %v", rec.ID, err)
	case w != rec.Width || h != rec.Height:
		b.tally.fail("%s: layout is %dx%d, the record says %dx%d", rec.ID, w, h, rec.Width, rec.Height)
	default:
		b.tally.pass()
	}
	return read, check
}

// fetchChecked downloads one record's .fgl and revalidates it, and
// names the first mismatch with the record's hash.
func (b *bencher) fetchChecked(ctx context.Context, l *live, id, hash string) ([]byte, string) {
	path := "/v1/layouts/" + id + "/layout.fgl"
	resp, err := l.get(ctx, path, "")
	if err != nil {
		return nil, err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := `"` + hash + `"`
	switch {
	case err != nil:
		return nil, err.Error()
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Sprintf("download status %d", resp.StatusCode)
	case core.HashBytes(body) != hash:
		return nil, "download SHA-256 differs from the record hash"
	case resp.Header.Get("ETag") != etag:
		return nil, fmt.Sprintf("ETag %s, want %s", resp.Header.Get("ETag"), etag)
	}
	resp, err = l.get(ctx, path, etag)
	if err != nil {
		return nil, err.Error()
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusNotModified || n != 0 {
		return nil, fmt.Sprintf("revalidation answered %d with %d bytes", resp.StatusCode, n)
	}
	return body, ""
}

func (l *live) getJSON(ctx context.Context, path string, v any) error {
	resp, err := l.get(ctx, path, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
