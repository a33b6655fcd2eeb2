package server_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/server"
)

// BenchmarkExtractServe serves kx-perfect through Handler over a disk store
// and times one request per iteration.  cold is 64 runs on a fresh server.
// grow is 128 runs on the server that has just served 64, whose cached index
// state covers them.  restart-grow is 128 runs on a new server over the store
// the 64-run server left, with no index state.  The 64-run priming is untimed.
func BenchmarkExtractServe(b *testing.B) {
	want := map[int][]byte{}
	for _, runs := range []int{64, 128} {
		want[runs] = goldenExtractBody(b, server.ExtractRequest{Extraction: "kx-perfect", Runs: runs})
	}
	serve := func(srv *server.Server, runs int) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/extract?extraction=kx-perfect&runs=%d", runs), nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[runs]) {
			b.Fatalf("runs=%d: HTTP %d, or the body differs from Runner.Extract's rendering", runs, rec.Code)
		}
	}
	newServer := func(dir string) *server.Server {
		srv, err := server.New(server.Config{Store: reopen(b, dir)})
		if err != nil {
			b.Fatal(err)
		}
		return srv
	}
	for _, leg := range []struct {
		name    string
		prime   bool
		restart bool
		runs    int
	}{
		{"cold", false, false, 64},
		{"grow", true, false, 128},
		{"restart-grow", true, true, 128},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				srv := newServer(dir)
				if leg.prime {
					serve(srv, 64)
				}
				if leg.restart {
					srv = newServer(dir)
				}
				b.StartTimer()
				serve(srv, leg.runs)
				b.StopTimer()
				// b.TempDir's directories last until the run ends; drop
				// each iteration's store now so b.N of them never pile up.
				os.RemoveAll(dir)
			}
		})
	}
}
