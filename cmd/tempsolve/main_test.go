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

// wantFlags is tempsolve's flag surface — name, value type and default, in
// flag order — with GOMAXPROCS and $TEMPMEMO standing for the defaults
// read from the process environment.
var wantFlags = []string{
	`backend string ""`,
	`budget string ""`,
	`cols int "8"`,
	`distribute int "0"`,
	`fault-campaign string ""`,
	`fault-core float64 "0"`,
	`fault-link float64 "0.15"`,
	`fault-seed int64 "3"`,
	`list-backends bool "false"`,
	`list-models bool "false"`,
	`list-strategies bool "false"`,
	`list-wafers bool "false"`,
	`memo-dir string $TEMPMEMO`,
	`model string "gpt3-6.7b"`,
	`no-ga bool "false"`,
	`repair bool "false"`,
	`rows int "4"`,
	`scenario string ""`,
	`scenarios string ""`,
	`seed int64 "7"`,
	`strategy string "ga"`,
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
