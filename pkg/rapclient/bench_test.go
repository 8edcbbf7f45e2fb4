package rapclient_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
	"repro/pkg/rapclient"
)

// BenchmarkScanRoundTrip is one Client.Scan over loopback against a real
// service, at the two response shapes the ledger serves: a bulk body
// with 256 matches and a small one with 32. With the kernel cheap (24
// literals behind the teddy tier), allocs/op and B/op are the request
// path's own: body read, response encode, client decode.
func BenchmarkScanRoundTrip(b *testing.B) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := rapclient.New(srv.URL, rapclient.WithRetries(0))
	ctx := context.Background()
	var patterns []string
	for i := 0; i < 24; i++ {
		patterns = append(patterns, fmt.Sprintf("key%02d", i))
	}
	prog, err := cl.Compile(ctx, patterns, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct{ matches, size int }{{256, 1 << 20}, {32, 2 << 10}} {
		body := bytes.Repeat([]byte{'.'}, shape.size)
		for i := 0; i < shape.matches; i++ {
			copy(body[i*(shape.size/shape.matches):], patterns[i%len(patterns)])
		}
		b.Run(fmt.Sprintf("matches=%d/body=%d", shape.matches, shape.size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(shape.size))
			for i := 0; i < b.N; i++ {
				res, err := cl.Scan(ctx, prog.ID, body)
				if err != nil || res.Count != shape.matches {
					b.Fatalf("scan: %+v, %v", res, err)
				}
			}
		})
	}
}
