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

// wantFlags is tempbench's flag surface — name, value type and default, in
// flag order — with GOMAXPROCS and $TEMPMEMO standing for the defaults
// read from the process environment.
var wantFlags = []string{
	`backend string ""`,
	`budget string ""`,
	`chaos string ""`,
	`connect string ""`,
	`cpuprofile string ""`,
	`distribute int "0"`,
	`exp string ""`,
	`fault-campaign string ""`,
	`heartbeat time.Duration "0s"`,
	`json string ""`,
	`list bool "false"`,
	`list-backends bool "false"`,
	`list-models bool "false"`,
	`list-strategies bool "false"`,
	`list-wafers bool "false"`,
	`listen string ""`,
	`memo-dir string $TEMPMEMO`,
	`memprofile string ""`,
	`model string ""`,
	`quick bool "false"`,
	`redial int "10"`,
	`repair bool "false"`,
	`scenario string ""`,
	`scenarios string ""`,
	`seed int64 "7"`,
	`strategy string ""`,
	`sync-memo bool "false"`,
	`wafer string ""`,
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

// TestWorkerTail: spawned workers get the -model/-wafer/-backend
// experiment overrides that are set, in that order, after the shared
// head of their command line.
func TestWorkerTail(t *testing.T) {
	if tail := workerTail(); len(tail) != 0 {
		t.Fatalf("no overrides: tail %q", tail)
	}
	defer func() { *modelNames, *waferName, *backend = "", "", "" }()
	*modelNames, *waferName, *backend = "gpt3-6.7b,llama2-7b", "wsc-6x8", "replay"
	want := "-model gpt3-6.7b,llama2-7b -wafer wsc-6x8 -backend replay"
	if got := strings.Join(workerTail(), " "); got != want {
		t.Errorf("tail %q, want %q", got, want)
	}
	*waferName = ""
	want = "-model gpt3-6.7b,llama2-7b -backend replay"
	if got := strings.Join(workerTail(), " "); got != want {
		t.Errorf("tail %q, want %q", got, want)
	}
}
