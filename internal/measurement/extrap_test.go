package measurement

import (
	"strings"
	"testing"
)

const extrapTwoParam = `
PARAMETER p
PARAMETER size

POINTS ( 8 1024 ) ( 16 1024 ) ( 32 1024 ) ( 64 1024 ) ( 128 1024 )

REGION solver
METRIC time
DATA 1.20 1.25 1.22
DATA 2.43 2.51 2.47
DATA 4.90 4.85 4.95
DATA 9.80 9.70 9.90
DATA 19.6 19.4 19.8
`

func TestReadExtraPTwoParams(t *testing.T) {
	set, err := ReadExtraPWith(strings.NewReader(extrapTwoParam), ReadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if set.NumParams() != 2 || len(set.Data) != 5 {
		t.Fatalf("parsed %d params, %d points", set.NumParams(), len(set.Data))
	}
	if set.Metric != "time" {
		t.Fatalf("metric = %q", set.Metric)
	}
	if set.ParamNames[0] != "p" || set.ParamNames[1] != "size" {
		t.Fatalf("param names = %v", set.ParamNames)
	}
	if !set.Data[2].Point.Equal(Point{32, 1024}) {
		t.Fatalf("third point = %v", set.Data[2].Point)
	}
	if len(set.Data[0].Values) != 3 {
		t.Fatalf("repetitions = %d", len(set.Data[0].Values))
	}
}

func TestReadExtraPSingleParamBarePoints(t *testing.T) {
	input := `
PARAMETER n
POINTS 4 8 16 32 64
DATA 1
DATA 2
DATA 4
DATA 8
DATA 16
`
	set, err := ReadExtraPWith(strings.NewReader(input), ReadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if set.NumParams() != 1 || len(set.Data) != 5 {
		t.Fatalf("parsed %+v", set)
	}
}

func TestReadExtraPSecondRegionIgnored(t *testing.T) {
	input := extrapTwoParam + `
REGION other
DATA 9 9 9
`
	set, err := ReadExtraPWith(strings.NewReader(input), ReadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Data) != 5 {
		t.Fatalf("second region leaked: %d points", len(set.Data))
	}
}

func TestReadExtraPErrors(t *testing.T) {
	cases := map[string]string{
		"data before points":      "PARAMETER p\nDATA 1 2\n",
		"points before parameter": "POINTS ( 1 )\n",
		"bad keyword":             "FROBNICATE\n",
		"bad value":               "PARAMETER p\nPOINTS 1 2 3 4 5\nDATA x\n",
		"too many data":           "PARAMETER p\nPOINTS 1 2 3 4 5\nDATA 1\nDATA 2\nDATA 3\nDATA 4\nDATA 5\nDATA 6\n",
		"too few data":            "PARAMETER p\nPOINTS 1 2 3 4 5\nDATA 1\n",
		"unbalanced parens":       "PARAMETER p\nPOINTS ( 1\n",
		"arity mismatch":          "PARAMETER p\nPARAMETER q\nPOINTS ( 1 )\nDATA 1\n",
		"bare multi-param":        "PARAMETER p\nPARAMETER q\nPOINTS 1 2\nDATA 1\nDATA 2\n",
		"empty data line":         "PARAMETER p\nPOINTS 1 2 3 4 5\nDATA\n",
		"empty points":            "PARAMETER p\nPOINTS ( )\nDATA 1\n",
		"parameter unnamed":       "PARAMETER\n",
	}
	for name, input := range cases {
		if _, err := ReadExtraPWith(strings.NewReader(input), ReadConfig{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
