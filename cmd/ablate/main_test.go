package main

import (
	"testing"

	"vanguard/internal/cli/clitest"
)

func TestFlags(t *testing.T) { clitest.CheckFlags(t, run) }
