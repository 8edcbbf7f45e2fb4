package cluster

import (
	"strings"
	"testing"

	"repro/pkg/rapclient"
)

// TestCanaryJudgesItsOwnWindow: a canary is judged on the requests it
// finished between its sample at staging and a later one, whatever it
// served before staging. (a) 10 000 good requests before staging, then
// 50 of 100 answered 5xx: rolled back (a burn over a 5-minute window
// that held the history read 4.95 and promoted it). (b) 100 of 1 000
// answered 5xx before staging, then 100 clean: promoted (the 5-minute
// burn read 90.9 and rolled it back).
func TestCanaryJudgesItsOwnWindow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, now rapclient.RequestCounts
		rollback  string // a word of the reason; "" is a promotion
	}{
		{"a: bad canary after a clean history", rapclient.RequestCounts{Total: 10000}, rapclient.RequestCounts{Total: 10100, Errors: 50}, "5xx"},
		{"b: clean canary after a bad history", rapclient.RequestCounts{Total: 1000, Errors: 100}, rapclient.RequestCounts{Total: 1100, Errors: 100}, ""},
		{"empty window", rapclient.RequestCounts{Total: 7, Errors: 7, Slow: 7}, rapclient.RequestCounts{Total: 7, Errors: 7, Slow: 7}, ""},
		{"5xx at the limit", rapclient.RequestCounts{}, rapclient.RequestCounts{Total: 1000, Errors: 14}, ""},
		{"5xx past the limit", rapclient.RequestCounts{}, rapclient.RequestCounts{Total: 1000, Errors: 15}, "5xx"},
		{"slow at the limit", rapclient.RequestCounts{Total: 5, Slow: 5}, rapclient.RequestCounts{Total: 1005, Slow: 149}, ""},
		{"slow past the limit", rapclient.RequestCounts{Total: 5, Slow: 5}, rapclient.RequestCounts{Total: 1005, Slow: 150}, "slowly"},
	} {
		got := judgeWindow(tc.base, tc.now)
		if (got == "") != (tc.rollback == "") || !strings.Contains(got, tc.rollback) {
			t.Errorf("%s: verdict %q, want a rollback naming %q (empty: promote)", tc.name, got, tc.rollback)
		}
	}
}
