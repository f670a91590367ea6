package cliflags

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parse(t *testing.T, caps Caps, args ...string) *Set {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Register(fs, caps)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistryOnlyWhenAsked(t *testing.T) {
	s := parse(t, Caps{})
	run, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.Reg != nil {
		t.Fatal("registry created with no observability flags set")
	}
}

func TestAlwaysRegistry(t *testing.T) {
	s := parse(t, Caps{AlwaysRegistry: true})
	run, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.Reg == nil {
		t.Fatal("AlwaysRegistry did not create a registry")
	}
}

func TestCapsGateOptionalFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, Caps{})
	for _, name := range []string{"trace-events", "listen"} {
		if fs.Lookup(name) != nil {
			t.Fatalf("-%s registered without its capability", name)
		}
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, Caps{TraceEvents: true, Listen: true})
	for _, name := range []string{"metrics", "trace", "trace-events", "listen", "cpuprofile", "memprofile"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("-%s missing with full capabilities", name)
		}
	}
}

func TestMetricsFileAndListenEndpoint(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.json")
	s := parse(t, Caps{Listen: true}, "-metrics", mpath, "-listen", "127.0.0.1:0")
	run, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	if run.Reg == nil {
		t.Fatal("-metrics must create a registry")
	}
	run.Reg.Counter("cliflags/test").Inc()
	sp := run.Reg.StartSpan("cliflags/phase")
	sp.End()

	resp, err := http.Get("http://" + run.srv.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "cliflags/test") {
		t.Fatalf("metrics snapshot missing counter: %s", b)
	}
}
