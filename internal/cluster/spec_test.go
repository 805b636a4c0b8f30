package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/dist"
)

var parseSpeedsCases = []struct {
	spec  string
	hosts int
	want  []float64
}{
	{"", 4, nil},
	{"  ", 4, nil},
	{"2", 3, []float64{2, 2, 2}},
	{"1.5x2,0.5x2", 4, []float64{1.5, 1.5, 0.5, 0.5}},
	{"2x1,1x3", 4, []float64{2, 1, 1, 1}},
	{"1.5x1", 1, []float64{1.5}},
	{" 1.5x2 , 0.5x2 ", 4, []float64{1.5, 1.5, 0.5, 0.5}},
	{"3,1,2", 3, []float64{3, 1, 2}},
}

var parseSpeedsErrors = []struct {
	spec  string
	hosts int
}{
	{"1.5x2", 4},       // count short of hosts
	{"1.5x2,0.5x3", 4}, // count beyond hosts
	{"fastx2,1x2", 4},  // non-numeric speed
	{"1.5xq", 1},       // non-numeric count
	{"1.5x0,1x4", 4},   // zero count
	{"abc", 4},         // bare non-numeric
	{"1x500000000", 2}, // huge count: rejected before it is expanded
}

func TestParseSpeeds(t *testing.T) {
	for _, c := range parseSpeedsCases {
		got, err := ParseSpeeds(c.spec, c.hosts)
		if err != nil {
			t.Errorf("ParseSpeeds(%q, %d): %v", c.spec, c.hosts, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpeeds(%q, %d) = %v, want %v", c.spec, c.hosts, got, c.want)
		}
	}
}

func TestParseSpeedsErrors(t *testing.T) {
	for _, c := range parseSpeedsErrors {
		if _, err := ParseSpeeds(c.spec, c.hosts); err == nil {
			t.Errorf("ParseSpeeds(%q, %d): want error, got nil", c.spec, c.hosts)
		}
	}
}

// Parsed speed vectors feed cluster.New unchanged, so its validation
// (positivity, finiteness) applies; the parser itself accepts any float.
func TestParseSpeedsNonPositiveRejectedByNew(t *testing.T) {
	sp, err := ParseSpeeds("-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := validCfg(2)
	cfg.Speeds = sp
	if _, err := New(cfg); err == nil {
		t.Fatal("cluster.New accepted negative parsed speeds")
	}
}

func TestParseNetDelay(t *testing.T) {
	if d, err := ParseNetDelay(""); err != nil || d != nil {
		t.Fatalf("empty spec: got %v, %v", d, err)
	}
	d, err := ParseNetDelay("500us")
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := d.(dist.Constant); !ok || c.Value != 500*time.Microsecond {
		t.Fatalf("constant spec parsed as %v", d)
	}
	d, err = ParseNetDelay("200us-2ms")
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := d.(dist.Uniform); !ok || u.Lo != 200*time.Microsecond || u.Hi != 2*time.Millisecond {
		t.Fatalf("uniform spec parsed as %v", d)
	}
}

var parseNetDelayErrors = []string{
	"fast",      // not a duration
	"2ms-200us", // hi < lo
	"-1ms",      // negative constant
	"1ms-x",     // bad hi
}

func TestParseNetDelayErrors(t *testing.T) {
	for _, spec := range parseNetDelayErrors {
		if _, err := ParseNetDelay(spec); err == nil {
			t.Errorf("ParseNetDelay(%q): want error, got nil", spec)
		}
	}
}

// FuzzParseSpeeds: no spec panics, and a spec that parses is either
// empty (nil: the uniform fleet) or gives exactly one factor per host.
// The host count is a uint16 so the fuzzer cannot ask the bare-value
// form for an arbitrarily large fleet.
func FuzzParseSpeeds(f *testing.F) {
	for _, c := range parseSpeedsCases {
		f.Add(c.spec, uint16(c.hosts))
	}
	for _, c := range parseSpeedsErrors {
		f.Add(c.spec, uint16(c.hosts))
	}
	f.Fuzz(func(t *testing.T, spec string, hosts uint16) {
		got, err := ParseSpeeds(spec, int(hosts))
		switch {
		case err != nil:
		case strings.TrimSpace(spec) == "":
			if got != nil {
				t.Fatalf("ParseSpeeds(%q, %d) = %v, want nil", spec, hosts, got)
			}
		case len(got) != int(hosts):
			t.Fatalf("ParseSpeeds(%q, %d) returned %d factors", spec, hosts, len(got))
		}
	})
}

// FuzzParseNetDelay: no spec panics, and a spec that parses is empty
// (nil), a non-negative constant, or a uniform with 0 <= lo <= hi.
func FuzzParseNetDelay(f *testing.F) {
	for _, spec := range append([]string{"", "500us", "200us-2ms", "1x500000000"}, parseNetDelayErrors...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseNetDelay(spec)
		if err != nil {
			return
		}
		switch v := d.(type) {
		case nil:
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("ParseNetDelay(%q) = nil for a non-empty spec", spec)
			}
		case dist.Constant:
			if v.Value < 0 {
				t.Fatalf("ParseNetDelay(%q) = negative constant %v", spec, v.Value)
			}
		case dist.Uniform:
			if v.Lo < 0 || v.Hi < v.Lo {
				t.Fatalf("ParseNetDelay(%q) = uniform [%v, %v)", spec, v.Lo, v.Hi)
			}
		default:
			t.Fatalf("ParseNetDelay(%q) = %T", spec, d)
		}
	})
}
