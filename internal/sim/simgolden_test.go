package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/compile"
	"repro/internal/mapper"
)

// simGoldenPatterns mixes the three RAP modes (NFA, NBVA, LNFA) with
// start- and end-anchored NFA regexes and a start-anchored NBVA regex.
// None of its NBVA regexes is end-anchored.
var simGoldenPatterns = []string{
	"cat", "hello world", "q[rs]t[0-9]z", "a(x|y)*b", "^q[bc]+", "world$",
	"ab{20}c", "x{30,40}y", "^qb{20}c", "d{40}g", "m[a-z]{0,25}n",
	"(foo|bar)+baz", "the quick brown fox jumps over the lazy dog",
	"pack my box with five dozen liquor jugs", "how vexingly quick daft zebras jump",
	"sphinx of black quartz judge my vow", "[0-9a-f]{8}-[0-9a-f]{4}-cafe",
}

func simGoldenInput() []byte {
	var b bytes.Buffer
	b.WriteString("qbbbbbbbbbbbbbbbbbbbbc hello world ")
	b.Write(makeInput(71, 3000, "abcdxyqrstmnz0123 "))
	b.WriteString(" cat a" + strings.Repeat("b", 20) + "c " + strings.Repeat("x", 35) + "y ")
	b.WriteString(strings.Repeat("d", 45) + "g axyyxb qrt7z mabcdefn foobarbaz ")
	b.Write(makeInput(72, 3000, "abdxyzmnfo "))
	b.WriteString(" the quick brown fox jumps over the lazy dog 0badf00d-1234-cafe ")
	b.WriteString("sphinx of black quartz judge my vow the world")
	return b.Bytes()
}

// simGoldenRun simulates the golden ruleset on RAP (native mode mix and
// all-NFA), CAMA, CA and BVAP and traces the RAP placement. It returns
// the SHA-256 of the trace JSONL and each report's %+v.
func simGoldenRun(t *testing.T) (traceSHA string, reports []string) {
	t.Helper()
	input := simGoldenInput()
	compileMap := func(policy compile.ModePolicy) (*compile.Result, *arch.Placement) {
		res := compile.Compile(simGoldenPatterns, compile.Options{ModePolicy: policy})
		if len(res.Errors) != 0 {
			t.Fatal(res.Errors[0])
		}
		p, err := mapper.Map(res, mapper.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res, p
	}
	add := func(rep *Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, fmt.Sprintf("%+v", *rep))
	}
	res, p := compileMap(compile.PolicyDefault)
	var tr bytes.Buffer
	if err := Trace(res, p, input, &tr); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(tr.Bytes())
	add(SimulateRAP(res, p, input))
	resNFA, pNFA := compileMap(compile.ForceNFA)
	add(SimulateRAP(resNFA, pNFA, input))
	add(SimulateBaseline("CAMA", resNFA, pNFA, input))
	add(SimulateBaseline("CA", resNFA, pNFA, input))
	resBV := compile.Compile(simGoldenPatterns, compile.Options{ModePolicy: compile.AllowNBVA})
	pBV, err := MapBVAP(resBV)
	if err != nil {
		t.Fatal(err)
	}
	add(SimulateBVAP(resBV, pBV, input))
	return hex.EncodeToString(sum[:]), reports
}

// TestSimGolden pins what the paper tables do not: the trace bytes and
// every field of the five architectures' reports on one fixed ruleset.
// The values were recorded before the architectures shared one cycle
// loop; a change that moves them changes what the simulator reports.
func TestSimGolden(t *testing.T) {
	const wantTrace = "9817de56c52591776c7511d773673b2532f94808751626c8cba1ecb25a08a11d"
	want := []string{
		"{Arch:RAP Chars:6288 Cycles:25528 StallCycles:19240 Matches:224 IOInterrupts:4 ClockGHz:2.08 ReconfigEvents:0 ReconfigStallCycles:0 PerRegex:map[0:1 1:1 2:1 3:35 4:21 5:1 6:1 7:1 8:1 9:1 10:156 11:1 12:1 15:1 16:1] GatedTileCycles:6272 LNFATileCycles:12576 Energy:{CAM:15291.65625 LocalSwitch:57374.34375 GlobalSwitch:0 Controller:131712 BVM:0 Wire:1257.621 Config:0 Leakage:12271.849615384615} Area:{Tiles:0.048655 GlobalSwitch:0.054459 Controller:0.0042 BVM:0 IO:0.002}}",
		"{Arch:RAP Chars:6288 Cycles:6288 StallCycles:0 Matches:224 IOInterrupts:4 ClockGHz:2.08 ReconfigEvents:0 ReconfigStallCycles:0 PerRegex:map[0:1 1:1 2:1 3:35 4:21 5:1 6:1 7:1 8:1 9:1 10:156 11:1 12:1 15:1 16:1] GatedTileCycles:0 LNFATileCycles:0 Energy:{CAM:71133 LocalSwitch:23489.6640625 GlobalSwitch:12582.83203125 Controller:50304 BVM:0 Wire:1258.5240000000001 Config:0 Leakage:1297.8069230769229} Area:{Tiles:0.029193 GlobalSwitch:0.018153 Controller:0.0014 BVM:0 IO:0.002}}",
		"{Arch:CAMA Chars:6288 Cycles:6288 StallCycles:0 Matches:224 IOInterrupts:0 ClockGHz:2.14 ReconfigEvents:0 ReconfigStallCycles:0 PerRegex:map[] GatedTileCycles:0 LNFATileCycles:0 Energy:{CAM:71133 LocalSwitch:23489.6640625 GlobalSwitch:12582.83203125 Controller:12576 BVM:0 Wire:1258.5240000000001 Config:0 Leakage:1190.018691588785} Area:{Tiles:0.024843 GlobalSwitch:0.018153 Controller:0.0014 BVM:0 IO:0.002}}",
		"{Arch:CA Chars:6288 Cycles:6288 StallCycles:0 Matches:224 IOInterrupts:0 ClockGHz:1.82 ReconfigEvents:0 ReconfigStallCycles:0 PerRegex:map[] GatedTileCycles:0 LNFATileCycles:0 Energy:{CAM:39178.72265625 LocalSwitch:23489.6640625 GlobalSwitch:12582.83203125 Controller:12576 BVM:0 Wire:1258.5240000000001 Config:0 Leakage:2332.087912087912} Area:{Tiles:0.050894999999999996 GlobalSwitch:0.018153 Controller:0.0014 BVM:0 IO:0.002}}",
		"{Arch:BVAP Chars:6288 Cycles:15908 StallCycles:9620 Matches:224 IOInterrupts:0 ClockGHz:2 ReconfigEvents:0 ReconfigStallCycles:0 PerRegex:map[] GatedTileCycles:0 LNFATileCycles:0 Energy:{CAM:43819.5 LocalSwitch:19970.7265625 GlobalSwitch:12576 Controller:25152 BVM:96012 Wire:1257.6000000000001 Config:0 Leakage:5652.430560000001} Area:{Tiles:0.024843 GlobalSwitch:0.036306 Controller:0.0028 BVM:0.014844375 IO:0.002}}",
	}
	traceSHA, reports := simGoldenRun(t)
	if traceSHA != wantTrace {
		t.Errorf("trace SHA-256 = %s, want %s", traceSHA, wantTrace)
	}
	for i := range want {
		if reports[i] != want[i] {
			t.Errorf("report %d:\n got %s\nwant %s", i, reports[i], want[i])
		}
	}
}
