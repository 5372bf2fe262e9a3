package main

import (
	"os"
	"path/filepath"

	"temp/internal/engine"
	"temp/internal/experiments"
)

// regenerate rewrites every expected output file from the current
// program: the masked paper-suite tables and the solve-cold outcomes.
func regenerate() error {
	engine.SetWorkers(paperWorkers)
	tabs, _, err := experiments.AllTimed(true)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(expectedDir, "paper-suite.txt"), []byte(renderMasked(tabs)), 0o644); err != nil {
		return err
	}
	return regenSolve()
}
