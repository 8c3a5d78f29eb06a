package netio

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// TestServerConfigValidate pins exactly what NewServer and NewSourceServer
// reject: unknown wire and fanout modes and negative shard counts. Numeric
// options outside their range are normalization's job, not errors.
func TestServerConfigValidate(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize()-5, 63)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opt     ServerOption
		wantErr string
	}{
		{"default", WithQueueDepth(64), ""},
		{"zero value", func(c *serverConfig) { *c = serverConfig{} }, ""},
		{"bad wire mode", WithWireMode(WireMode(9)), "wire mode"},
		{"bad fanout", WithFanout(FanoutMode(7)), "fanout"},
		{"negative shards", WithPumpShards(-1), "pump shards"},
		{"negative queue ok", WithQueueDepth(-5), ""},
		{"negative retries ok", WithWriteRetries(-1), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(media, p, tc.opt)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewServer = %v, want nil", err)
				}
				srv.Shutdown()
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewServer = %v, want error containing %q", err, tc.wantErr)
			}
			// The source-backed constructor runs the same validation.
			if _, err := NewSourceServer(newPoolSource(t, obj, p.BlockCount), tc.opt); err == nil ||
				!strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewSourceServer = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestServerConfigNormalized pins the defaults a server built with no
// options runs with, and the zero-to-default and clamp resolution.
func TestServerConfigNormalized(t *testing.T) {
	got := serverDefaults().normalized(16)
	want := serverConfig{
		QueueDepth:    64,
		WriteDeadline: 5 * time.Second,
		WriteRetries:  1,
		EncodeBatch:   4, // max(4, 16/4)
		Seed:          1,
		PumpShards:    1,
		RetryAfter:    250 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
	if (serverConfig{WriteRetries: -2}).normalized(16).WriteRetries != 0 {
		t.Fatal("negative WriteRetries must clamp to 0")
	}
	if (serverConfig{QueueDepth: -3}).normalized(16).QueueDepth != 1 {
		t.Fatal("negative QueueDepth must clamp to 1")
	}
	if (serverConfig{}).normalized(64).EncodeBatch != 16 {
		t.Fatal("EncodeBatch default must scale with block count")
	}
	// Meaningful zeros survive normalization untouched.
	z := (serverConfig{}).normalized(16)
	if z.WriteDeadline != 0 || z.MaxSessions != 0 || z.Pace != 0 {
		t.Fatalf("meaningful zeros were defaulted: %+v", z)
	}
}

// TestFetcherConfigValidate pins the fetcher-side rejections: each one fails
// Fetch before the first dial, and every accepted configuration dials.
func TestFetcherConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		opt     FetcherOption
		wantErr string
	}{
		{"default", WithMaxAttempts(0), ""},
		{"zero value", func(c *fetcherConfig) { *c = fetcherConfig{} }, ""},
		{"negative attempts", WithMaxAttempts(-1), "attempt budget"},
		{"negative timeout", WithFetchTimeout(-1), "fetch timeout"},
		{"negative backoff", WithBackoff(-time.Second, 0), "negative backoff"},
		{"negative backoff max", WithBackoff(0, -time.Second), "negative backoff"},
		{"inverted backoff", WithBackoff(3*time.Second, time.Second), "exceeds max"},
		// WithBackoffJitter clamps into range, so only a raw option can
		// store an out-of-range jitter.
		{"jitter too big", func(c *fetcherConfig) { c.Jitter = 1.5 }, "jitter"},
		{"jitter negative", func(c *fetcherConfig) { c.Jitter = -0.1 }, "jitter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dials := 0
			// An accepted fetch reaches the dial, which ends it.
			dial := func(context.Context) (net.Conn, error) {
				dials++
				cancel()
				return nil, errors.New("dial refused")
			}
			res, err := NewFetcher(dial, tc.opt).Fetch(ctx)
			if res == nil {
				t.Fatal("Fetch returned a nil result")
			}
			if tc.wantErr == "" {
				if dials == 0 {
					t.Fatalf("valid options never dialed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Fetch = %v, want error containing %q", err, tc.wantErr)
			}
			if dials != 0 || res.Stats.Attempts != 0 {
				t.Fatalf("invalid options dialed %d times (%d attempts)", dials, res.Stats.Attempts)
			}
		})
	}
}

// TestFetchValidatesBeforeDial pins that the option values a command line
// can reach — an inverted or negative backoff, a negative attempt budget, a
// negative fetch timeout — fail the fetch with a non-nil result and zero
// dials instead of running silently.
func TestFetchValidatesBeforeDial(t *testing.T) {
	for _, opts := range [][]FetcherOption{
		{WithBackoff(3*time.Second, time.Second), WithMaxAttempts(1)},
		{WithBackoff(-time.Millisecond, time.Second), WithMaxAttempts(1)},
		{WithMaxAttempts(-1), WithFetchTimeout(time.Second)},
		{WithFetchTimeout(-1), WithMaxAttempts(1)},
	} {
		dials := 0
		dial := func(context.Context) (net.Conn, error) {
			dials++
			return nil, errors.New("dial refused")
		}
		res, err := NewFetcher(dial, opts...).Fetch(context.Background())
		if err == nil || dials != 0 {
			t.Fatalf("Fetch = %v after %d dials, want a validation error and no dial", err, dials)
		}
		if res == nil || res.Stats == nil || res.Stats.Attempts != 0 {
			t.Fatalf("validation failure result = %+v, want a non-nil result with zero attempts", res)
		}
	}
}
