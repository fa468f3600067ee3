package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"riotshare/internal/blockproto"
	"riotshare/internal/server"
	"riotshare/internal/telemetry"
)

// client talks to one host over its public HTTP surface.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// getJSON decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit POSTs one request body and returns the query id; a refusal is an
// error.
func (c *client) submit(body []byte) (string, error) {
	resp, err := c.http.Post(c.base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("POST /submit: %s: %w", resp.Status, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /submit: %s: %s", resp.Status, out.Error)
	}
	return out.ID, nil
}

// wait blocks on /results?wait=1 and returns the final status; a failed
// query is an error.
func (c *client) wait(id string) (server.QueryStatus, error) {
	var st server.QueryStatus
	if err := c.getJSON("/results?wait=1&id="+id, &st); err != nil {
		return st, err
	}
	if st.State != server.StateDone {
		return st, fmt.Errorf("query %s %s: %s", id, st.State, st.Err)
	}
	return st, nil
}

func (c *client) stats() (server.Stats, error) {
	var st server.Stats
	err := c.getJSON("/stats", &st)
	return st, err
}

func (c *client) trace(id string) (*telemetry.Span, error) {
	var tr telemetry.Trace
	if err := c.getJSON("/trace?id="+id, &tr); err != nil {
		return nil, err
	}
	if tr.Root == nil {
		return nil, fmt.Errorf("trace %s has no root span", id)
	}
	return tr.Root, nil
}

// metrics scrapes /metrics and sums each family over its label sets
// (histogram _bucket series are skipped; _sum and _count are kept).
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parsePrometheus(resp.Body)
}

func parsePrometheus(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// streamed is what one /results/stream delivery looked like from the
// client: when the first block frame and the end frame arrived, and how
// much payload came between them.
type streamed struct {
	firstBlock, end time.Time
	frames          int
	bytes           int64
}

// stream pulls a query's result through GET /results/stream (binary
// frames, retain=drop), checking every block against the oracle as it
// arrives (a nil expectation skips the check: warm-up). It returns once the
// end frame is in; the caller drains.
func (c *client) stream(id string, want expectation) (streamed, io.ReadCloser, error) {
	var s streamed
	resp, err := c.http.Get(c.base + "/results/stream?retain=drop&id=" + id)
	if err != nil {
		return s, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return s, nil, fmt.Errorf("GET /results/stream: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	fail := func(err error) (streamed, io.ReadCloser, error) {
		resp.Body.Close()
		return s, nil, err
	}
	for {
		_, kind, payload, err := blockproto.ReadFrame(rd)
		if err != nil {
			return fail(fmt.Errorf("stream %s: %w", id, err))
		}
		d := blockproto.NewDec(payload)
		switch kind {
		case server.StreamFrameArray:
		case server.StreamFrameBlock:
			now := time.Now()
			name := d.Str()
			br, bc := d.I64(), d.I64()
			rows, cols := int(d.U32()), int(d.U32())
			blob := d.Blob()
			if err := d.Err(); err != nil {
				return fail(fmt.Errorf("stream %s: block frame: %w", id, err))
			}
			blk, err := blockproto.DecodeBlock(rows, cols, blob)
			if err != nil {
				return fail(fmt.Errorf("stream %s: %w", id, err))
			}
			if s.frames == 0 {
				s.firstBlock = now
			}
			s.frames++
			s.bytes += int64(len(blob))
			if want != nil {
				if err := want.checkBlock(name, br, bc, rows, cols, blk.Data); err != nil {
					return fail(err)
				}
			}
		case server.StreamFrameEnd:
			s.end = time.Now()
			d.U32() // arrays
			if blocks := int(d.U32()); d.Err() != nil || blocks != s.frames {
				return fail(fmt.Errorf("stream %s: end frame counts %d blocks, %d arrived", id, blocks, s.frames))
			}
			return s, resp.Body, nil
		case server.StreamFrameError:
			return fail(fmt.Errorf("stream %s: in-band error: %s", id, d.Str()))
		default:
			return fail(fmt.Errorf("stream %s: unexpected frame kind 0x%02x", id, kind))
		}
	}
}

// drain reads a response body to EOF so its connection can be reused.
func drain(body io.ReadCloser) error {
	_, err := io.Copy(io.Discard, body)
	if cerr := body.Close(); err == nil {
		err = cerr
	}
	return err
}
