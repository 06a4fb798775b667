package cliutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"extrapdnn/internal/dnnmodel"
)

func TestParseTopology(t *testing.T) {
	cases := map[string][]int{
		"":        dnnmodel.DefaultTopology,
		"default": dnnmodel.DefaultTopology,
		"paper":   dnnmodel.PaperTopology,
		"tiny":    dnnmodel.TinyTopology,
	}
	for in, want := range cases {
		got, err := ParseTopology(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(got) != len(want) || got[0] != want[0] {
			t.Errorf("ParseTopology(%q) = %v, want %v", in, got, want)
		}
	}
	got, err := ParseTopology("64, 32,16")
	if err != nil || len(got) != 3 || got[0] != 64 || got[2] != 16 {
		t.Fatalf("custom topology = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "a,b", "-5", "64,,32"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) should fail", bad)
		}
	}
}

func TestParseLevels(t *testing.T) {
	got, err := ParseLevels("2, 50,100")
	if err != nil || len(got) != 3 || got[0] != 0.02 || got[2] != 1.0 {
		t.Fatalf("levels = %v, %v", got, err)
	}
	if got, err := ParseLevels(""); err != nil || got != nil {
		t.Fatal("empty levels should give nil")
	}
	if _, err := ParseLevels("2,x"); err == nil {
		t.Fatal("invalid level should fail")
	}
	if _, err := ParseLevels("-3"); err == nil {
		t.Fatal("negative level should fail")
	}
}

func TestLoadOrPretrainRoundTrip(t *testing.T) {
	m, err := LoadOrPretrain(context.Background(), NetOptions{Topology: "tiny", SamplesPerClass: 5, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Net.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := LoadOrPretrain(context.Background(), NetOptions{NetPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Net.NumParams() != m.Net.NumParams() {
		t.Fatal("loaded network differs")
	}
}

func TestLoadOrPretrainErrors(t *testing.T) {
	if _, err := LoadOrPretrain(context.Background(), NetOptions{NetPath: "/nonexistent/net.bin"}); err == nil {
		t.Fatal("missing file should fail")
	}
	if _, err := LoadOrPretrain(context.Background(), NetOptions{Topology: "bogus-topo", SamplesPerClass: 5, Epochs: 1, Seed: 1}); err == nil {
		t.Fatal("bad topology should fail")
	}
}

func TestExitCode(t *testing.T) {
	if ExitCode(nil) != ExitOK {
		t.Fatal("nil error must map to ExitOK")
	}
	if ExitCode(context.DeadlineExceeded) != ExitTimeout {
		t.Fatal("deadline expiry must map to ExitTimeout")
	}
	if ExitCode(fmt.Errorf("wrap: %w", context.Canceled)) != ExitTimeout {
		t.Fatal("wrapped cancellation must map to ExitTimeout")
	}
	if ExitCode(errors.New("boom")) != ExitFatal {
		t.Fatal("plain error must map to ExitFatal")
	}
}

func TestTimeoutContext(t *testing.T) {
	ctx, cancel := TimeoutContext(0)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("zero timeout must not set a deadline")
	}
	ctx2, cancel2 := TimeoutContext(time.Hour)
	defer cancel2()
	if _, ok := ctx2.Deadline(); !ok {
		t.Fatal("positive timeout must set a deadline")
	}
}

func TestLoadOrPretrainCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadOrPretrain(ctx, NetOptions{Topology: "tiny", SamplesPerClass: 2, Epochs: 1, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestParsePoint(t *testing.T) {
	got, err := ParsePoint(" 4096 ,1e6\t", 2)
	if err != nil || len(got) != 2 || got[0] != 4096 || got[1] != 1e6 {
		t.Fatalf("ParsePoint with whitespace = %v, %v", got, err)
	}
	for _, bad := range []struct {
		in string
		m  int
	}{
		{"1,2", 3},   // too few values
		{"1,2,3", 2}, // too many values
		{"1,x", 2},   // not a float
		{"1,", 2},    // empty value
	} {
		if _, err := ParsePoint(bad.in, bad.m); err == nil {
			t.Errorf("ParsePoint(%q, %d) should fail", bad.in, bad.m)
		}
	}
}
