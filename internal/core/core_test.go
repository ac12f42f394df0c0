package core_test

import (
	"reflect"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/isa"
	"hipstr/internal/testprogs"
)

const maxSteps = 20_000_000

func TestHIPStRRunsPrograms(t *testing.T) {
	for name, tc := range testprogs.All() {
		t.Run(name, func(t *testing.T) {
			bin, err := compiler.Compile(tc.Mod)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.New(bin, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(maxSteps); err != nil {
				t.Fatal(err)
			}
			if !s.Exited() || s.ExitCode() != tc.Exit {
				t.Fatalf("exit %d (exited=%v), want %d", s.ExitCode(), s.Exited(), tc.Exit)
			}
		})
	}
}

func TestPhaseMigrationSwitchesISA(t *testing.T) {
	bin, err := compiler.Compile(testprogs.Fib(15))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	s, err := core.New(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := s.Active()
	// Run a little, request migration, keep running.
	if _, err := s.Run(500); err != nil {
		t.Fatal(err)
	}
	s.RequestPhaseMigration()
	if _, err := s.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if !s.Exited() || s.ExitCode() != 610 {
		t.Fatalf("fib(15) exit %d", s.ExitCode())
	}
	if s.Migrations() == 0 {
		t.Fatal("phase migration never happened")
	}
	if s.Active() == start && s.Migrations()%2 == 1 {
		t.Fatal("odd number of migrations but ISA unchanged")
	}
}

func TestPSRModeNeverMigrates(t *testing.T) {
	bin, err := compiler.Compile(testprogs.GlobalTable())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModePSR
	s, err := core.New(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if s.Migrations() != 0 {
		t.Fatalf("PSR mode migrated %d times", s.Migrations())
	}
	if s.Active() != isa.X86 {
		t.Fatal("ISA changed in PSR mode")
	}
}

// TestRespawnReRandomizesAndRuns: three lives respawned from one snapshot
// under the §5.3 seed lineage each relocate main away from the
// prototype's layout and still compute the program's result.
func TestRespawnReRandomizesAndRuns(t *testing.T) {
	bin, err := compiler.Compile(testprogs.SumLoop(10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	proto, err := core.New(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	fn := bin.Func("main")
	protoMap := proto.VM.MapOf(fn)[isa.X86].OffTo
	for life := 1; life <= 3; life++ {
		s, err := snap.Respawn(cfg.DBT.Seed+int64(life)*0x9E3779B9, dbt.ForkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(s.VM.MapOf(fn)[isa.X86].OffTo, protoMap) {
			t.Fatalf("life %d kept the prototype's relocation map", life)
		}
		if _, err := s.Run(maxSteps); err != nil {
			t.Fatal(err)
		}
		if s.ExitCode() != 45 {
			t.Fatalf("life %d: exit %d", life, s.ExitCode())
		}
	}
}
