package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// procs is GOMAXPROCS at start-up, before -test.cpu changes it: the
// default the pool-size flags were registered with.
var procs = fmt.Sprint(runtime.GOMAXPROCS(0))

// wantFlags is tempserve's flag surface — name, value type and default, in
// flag order — with GOMAXPROCS and $TEMPMEMO standing for the defaults
// read from the process environment.
var wantFlags = []string{
	`checkpoint-dir string ""`,
	`clients int "8"`,
	`coalesce time.Duration "2ms"`,
	`distribute int "0"`,
	`drain-grace time.Duration "30s"`,
	`json string ""`,
	`listen string ":8080"`,
	`loadtest bool "false"`,
	`max-concurrent int GOMAXPROCS`,
	`max-queue int "64"`,
	`memo-dir string $TEMPMEMO`,
	`mix string "examples/serve_mix"`,
	`passes int "2"`,
	`repeat int "1"`,
	`sync-memo bool "false"`,
	`url string "http://127.0.0.1:8080"`,
	`verify bool "true"`,
	`worker-mode bool "false"`,
	`workers int GOMAXPROCS`,
}

// TestFlagSurface: the binary registers exactly the flags it always
// had, with the same types and defaults.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		def := fmt.Sprintf("%q", f.DefValue)
		switch {
		case (f.Name == "workers" || f.Name == "max-concurrent") && f.DefValue == procs:
			def = "GOMAXPROCS"
		case f.Name == "memo-dir" && f.DefValue == os.Getenv("TEMPMEMO"):
			def = "$TEMPMEMO"
		}
		got = append(got, fmt.Sprintf("%s %T %s", f.Name, f.Value.(flag.Getter).Get(), def))
	})
	if strings.Join(got, "\n") != strings.Join(wantFlags, "\n") {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, wantFlags)
	}
}

// TestWorkerMemoDir: spawned workers share -memo-dir unless -sync-memo
// ships them the warm memo over the wire.
func TestWorkerMemoDir(t *testing.T) {
	defer func(dir string, sync bool) { rt.MemoDir, *syncMemo = dir, sync }(rt.MemoDir, *syncMemo)
	rt.MemoDir = "memo"
	if got := workerMemoDir(); got != "memo" {
		t.Errorf("shared memo: %q, want memo", got)
	}
	*syncMemo = true
	if got := workerMemoDir(); got != "" {
		t.Errorf("-sync-memo: %q, want none", got)
	}
}
