package cluster_test

import (
	"bufio"
	"context"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/qos"
	"repro/internal/service"
)

// TestMetricCatalogue holds the README to the /metrics a node serves
// after a tenanted scan, a session feed and an update: every rap_*
// family exposed is named in the README, and every family the README
// names is exposed. A README name ending in "_" is a prefix (rap_tenant_*),
// and one ending in a histogram's _bucket, _sum or _count names its
// family. One scrape must also declare each family once and each series
// (name plus label set) once.
func TestMetricCatalogue(t *testing.T) {
	tc := startCluster(t, 1, nil)
	svc := tc.nodes[0].Service()
	ctx := qos.WithTenant(context.Background(), "gold")
	prog, _, err := svc.Compile(ctx, []string{"needle", "ab{2,4}c"}, service.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Scan(ctx, prog.ID, []byte("hay needle abbc hay")); err != nil {
		t.Fatal(err)
	}
	sid, err := svc.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Feed(ctx, sid, []byte("nee")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.CloseSession(ctx, sid); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Update(ctx, prog.ID, []string{"needle", "haystack"}, service.CompileOptions{}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	tc.nodes[0].Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exposed := map[string]bool{}
	series := map[string]bool{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "rap_") {
			if exposed[f[2]] {
				t.Errorf("family %s has more than one # TYPE line", f[2])
			}
			exposed[f[2]] = true
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, _, _ := strings.Cut(line, " ")
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			key = line[:i+1]
		}
		if series[key] {
			t.Errorf("series %s appears twice", key)
		}
		series[key] = true
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, name := range regexp.MustCompile(`rap_[a-z0-9_]+`).FindAllString(string(readme), -1) {
		if strings.HasSuffix(name, "_") {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && exposed[base] {
				name = base
			}
		}
		named[name] = true
	}
	var undocumented, missing []string
	for name := range exposed {
		if !named[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range named {
		if !exposed[name] {
			missing = append(missing, name)
		}
	}
	slices.Sort(undocumented)
	slices.Sort(missing)
	if len(exposed) == 0 {
		t.Fatal("/metrics exposes no rap_* family")
	}
	if len(undocumented) > 0 {
		t.Errorf("exposed on /metrics but not named in README.md: %v", undocumented)
	}
	if len(missing) > 0 {
		t.Errorf("named in README.md but not exposed on /metrics: %v", missing)
	}
}
