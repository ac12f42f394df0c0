package gadget_test

import (
	"reflect"
	"testing"

	"hipstr/internal/fatbin"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/workload"
)

func compileProfile(t *testing.T, name string) *fatbin.Binary {
	t.Helper()
	p, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	bin, err := workload.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestCensusOrderIndependent pins what makes sharing one census between
// figures exact: a gadget's native effect does not depend on which
// gadgets ran before it on the same Analyzer.
func TestCensusOrderIndependent(t *testing.T) {
	bin := compileProfile(t, "libquantum")
	c := gadget.TakeCensus(bin, isa.X86)
	if c.Bin != bin || len(c.Gadgets) == 0 || len(c.Effects) != len(c.Gadgets) {
		t.Fatalf("census of %d gadgets, %d effects", len(c.Gadgets), len(c.Effects))
	}
	if !reflect.DeepEqual(c.Gadgets, gadget.Mine(bin, isa.X86, 0)) {
		t.Fatal("census gadgets differ from a fresh mining pass")
	}
	for i := range c.Gadgets {
		fresh := gadget.NewAnalyzer(bin).NativeEffect(&c.Gadgets[i])
		if !reflect.DeepEqual(fresh, c.Effects[i]) {
			t.Fatalf("%s: census effect %+v, fresh Analyzer %+v",
				c.Gadgets[i].String(), c.Effects[i], fresh)
		}
	}

	big := gadget.TakeCensus(compileProfile(t, "gobmk"), isa.X86)
	an := gadget.NewAnalyzer(big.Bin)
	for i := len(big.Gadgets) - 1; i >= 0; i-- {
		if e := an.NativeEffect(&big.Gadgets[i]); !reflect.DeepEqual(e, big.Effects[i]) {
			t.Fatalf("%s: census effect %+v, reverse-order pass %+v",
				big.Gadgets[i].String(), big.Effects[i], e)
		}
	}
	t.Logf("libquantum %d gadgets, gobmk %d", len(c.Gadgets), len(big.Gadgets))
}
