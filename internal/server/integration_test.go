package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The integration battery: upload the committed golden fixtures through
// the HTTP daemon at worker counts {1, 4, 7}, read every block back by
// random access, and byte-compare against the serial Decompress result
// (the committed .dec.f64 fixture). The stored segment must also be
// byte-identical across all worker counts — the sequencer determinism
// guarantee, observed end to end through the service.

const goldenDir = "../core/testdata/golden"

// integrationWorkerCounts per the acceptance battery.
var integrationWorkerCounts = []int{1, 4, 7}

// goldenServeCase is one fixture the server's default codec settings
// can reproduce (ER metric, Tree-5 encoding, adaptive sparse).
type goldenServeCase struct {
	name string
	cfg  core.Config
	raw  []byte // upload body: raw little-endian float64 blocks
	dec  []byte // serial Decompress output, little-endian
}

// loadGoldenServeCases reads the committed fixtures, skipping the ones
// whose codec settings the service does not expose (non-default metric
// or encoding).
func loadGoldenServeCases(t *testing.T) []goldenServeCase {
	t.Helper()
	pstrs, err := filepath.Glob(filepath.Join(goldenDir, "*.pstr"))
	if err != nil || len(pstrs) == 0 {
		t.Fatalf("no golden fixtures under %s (err=%v)", goldenDir, err)
	}
	def := core.Defaults(1, 1, 1)
	var cases []goldenServeCase
	for _, pstr := range pstrs {
		name := strings.TrimSuffix(filepath.Base(pstr), ".pstr")
		comp, err := os.ReadFile(pstr)
		if err != nil {
			t.Fatal(err)
		}
		cfg, _, _, err := core.ParseHeader(comp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Metric != def.Metric || cfg.Encoding != def.Encoding || cfg.DisableSparse {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(goldenDir, name+".raw.f64"))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := os.ReadFile(filepath.Join(goldenDir, name+".dec.f64"))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenServeCase{name: name, cfg: cfg, raw: raw, dec: dec})
	}
	if len(cases) < 3 {
		t.Fatalf("only %d default-codec golden fixtures; battery expects at least 3", len(cases))
	}
	return cases
}

// testConfig returns a service config rooted in a fresh temp dir.
func testConfig(t *testing.T, cfg core.Config, workers int) Config {
	t.Helper()
	c := DefaultConfig()
	c.Listen = "127.0.0.1:0"
	c.StoreDir = t.TempDir()
	c.CacheBytes = 1 << 20
	c.Workers = workers
	c.NumSB = cfg.NumSB
	c.SBSize = cfg.SBSize
	c.DefaultErrorBound = cfg.ErrorBound
	c.Tenants = map[string]TenantConfig{"it": {}}
	return c
}

// upload POSTs a raw body and fails the test on a non-201 response.
func upload(t *testing.T, ts *httptest.Server, tenant, id string, body []byte) map[string]any {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams?id="+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pastri-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body) //lint:errdrop-ok best-effort diagnostic body
		t.Fatalf("upload %s: status %d: %s", id, resp.StatusCode, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// readBlock GETs one block's raw payload.
func readBlock(t *testing.T, ts *httptest.Server, tenant, id string, n int) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/streams/%s/blocks/%d", ts.URL, id, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pastri-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) //lint:errdrop-ok best-effort diagnostic body
		t.Fatalf("read %s block %d: status %d: %s", id, n, resp.StatusCode, b)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// findSegment locates the single stored file under a store dir and
// returns the stream bytes inside it. The file must be exactly the
// stream, then the block index footer, then the 12-byte trailer
// (footer offset, "PEND"); the footer must record the stream length
// and account for every byte up to the trailer.
func findSegment(t *testing.T, storeDir string) []byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(storeDir, "shard-*", "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one stored file, found %v (err=%v)", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	const trailerSize, headerSize, entrySize = 12, 28, 16
	if len(b) < trailerSize || string(b[len(b)-4:]) != "PEND" {
		t.Fatalf("%s: no trailer", files[0])
	}
	footerOff := binary.LittleEndian.Uint64(b[len(b)-trailerSize:])
	if footerOff > uint64(len(b)-trailerSize-headerSize) {
		t.Fatalf("%s: footer offset %d out of range", files[0], footerOff)
	}
	footer := b[footerOff : len(b)-trailerSize]
	if string(footer[:4]) != "PIDX" || binary.LittleEndian.Uint64(footer[8:16]) != footerOff {
		t.Fatalf("%s: footer at %d does not describe a %d-byte stream", files[0], footerOff, footerOff)
	}
	if nblocks := binary.LittleEndian.Uint64(footer[20:28]); uint64(len(footer)) != headerSize+nblocks*entrySize+4 {
		t.Fatalf("%s: %d-byte footer for %d blocks", files[0], len(footer), nblocks)
	}
	return b[:footerOff]
}

func TestIntegrationGoldenServe(t *testing.T) {
	for _, gc := range loadGoldenServeCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			segByWorkers := make(map[int][]byte)
			for _, workers := range integrationWorkerCounts {
				cfg := testConfig(t, gc.cfg, workers)
				srv, err := New(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())

				resp := upload(t, ts, "it", "g", gc.raw)
				blockSize := gc.cfg.BlockSize()
				wantBlocks := len(gc.raw) / (blockSize * 8)
				if got := int(resp["blocks"].(float64)); got != wantBlocks {
					t.Fatalf("workers=%d: uploaded %d blocks, want %d", workers, got, wantBlocks)
				}

				// Random-access read of every block, twice (second pass
				// exercises the cache path), byte-compared to the serial
				// Decompress fixture.
				for pass := 0; pass < 2; pass++ {
					for b := 0; b < wantBlocks; b++ {
						got := readBlock(t, ts, "it", "g", b)
						want := gc.dec[b*blockSize*8 : (b+1)*blockSize*8]
						if !bytes.Equal(got, want) {
							t.Fatalf("workers=%d pass=%d block %d: served bytes differ from serial Decompress", workers, pass, b)
						}
					}
				}

				// The stored segment itself must decode serially to the
				// fixture: the service never stores bytes the library
				// toolchain cannot reproduce.
				seg := findSegment(t, cfg.StoreDir)
				dec, err := core.Decompress(seg, 1)
				if err != nil {
					t.Fatalf("workers=%d: stored segment does not decompress: %v", workers, err)
				}
				decBytes := make([]byte, len(dec)*8)
				for i, v := range dec {
					putF64(decBytes[i*8:], v)
				}
				if !bytes.Equal(decBytes, gc.dec) {
					t.Fatalf("workers=%d: serial decode of stored segment differs from golden", workers)
				}
				segByWorkers[workers] = seg

				ts.Close()
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Sequencer determinism through the service: the committed
			// segment bytes are identical at every worker count.
			base := segByWorkers[integrationWorkerCounts[0]]
			for _, workers := range integrationWorkerCounts[1:] {
				if !bytes.Equal(segByWorkers[workers], base) {
					t.Fatalf("stored segment differs between workers=%d and workers=%d",
						integrationWorkerCounts[0], workers)
				}
			}
		})
	}
}

func putF64(dst []byte, v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		dst[i] = byte(bits >> (8 * i))
	}
}

// Tenant isolation: a stream uploaded by one tenant is invisible to
// another, even with the id known.
func TestIntegrationTenantIsolation(t *testing.T) {
	gc := loadGoldenServeCases(t)[0]
	cfg := testConfig(t, gc.cfg, 2)
	cfg.Tenants["other"] = TenantConfig{}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload(t, ts, "it", "mine", gc.raw)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/streams/mine/blocks/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pastri-Tenant", "other")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant read: status %d, want 404", resp.StatusCode)
	}
}

// Graceful shutdown must drain an upload that is mid-flight: the client
// finishes streaming after Shutdown begins and still gets a 201, and
// the stream is committed.
func TestIntegrationGracefulShutdownDrains(t *testing.T) {
	gc := loadGoldenServeCases(t)[0]
	cfg := testConfig(t, gc.cfg, 2)
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeListener(ln) }()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/streams?id=drain", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pastri-Tenant", "it")
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()

	// Stream the first half, begin shutdown, then finish the body.
	half := len(gc.raw) / 2
	if _, err := pw.Write(gc.raw[:half]); err != nil {
		t.Fatal(err)
	}
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Give Shutdown a beat to close the listener, then finish uploading
	// over the already-established connection.
	time.Sleep(50 * time.Millisecond)
	if _, err := pw.Write(gc.raw[half:]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case resp := <-respc:
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body) //lint:errdrop-ok best-effort diagnostic body
			t.Fatalf("in-flight upload during shutdown: status %d: %s", resp.StatusCode, b)
		}
	case err := <-errc:
		t.Fatalf("in-flight upload failed during shutdown: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("upload did not complete during shutdown drain")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// The daemon serves from the fused compression path (the library
// default). This test pins that end to end: the segment the service
// stores for an upload must be byte-identical to the staged reference
// path's stream over the same blocks — the fused/staged identity
// observed through the full HTTP ingest stack, under the race detector
// in CI's serve-test job.
func TestIntegrationFusedMatchesStagedSegment(t *testing.T) {
	for _, gc := range loadGoldenServeCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			cfg := testConfig(t, gc.cfg, 4)
			srv, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			upload(t, ts, "it", "fused", gc.raw)
			seg := findSegment(t, cfg.StoreDir)
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			// Staged oracle: the same blocks through a serial StreamWriter
			// with the fused path disabled.
			data := make([]float64, len(gc.raw)/8)
			for i := range data {
				var bits uint64
				for b := 0; b < 8; b++ {
					bits |= uint64(gc.raw[i*8+b]) << (8 * b)
				}
				data[i] = math.Float64frombits(bits)
			}
			sCfg := gc.cfg
			sCfg.DisableFused = true
			var ref bytes.Buffer
			sw, err := core.NewStreamWriter(&ref, sCfg)
			if err != nil {
				t.Fatal(err)
			}
			bs := sCfg.BlockSize()
			for b := 0; b*bs < len(data); b++ {
				if err := sw.WriteBlock(data[b*bs : (b+1)*bs]); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seg, ref.Bytes()) {
				t.Fatalf("stored segment (fused service path) differs from staged reference stream (%d vs %d bytes)",
					len(seg), ref.Len())
			}
		})
	}
}
