// Fixture: the stale-suppression audit. A directive must absorb at
// least one diagnostic per run; one that absorbs nothing is directive
// rot and becomes a finding itself. Directives naming analyzers that
// did not run are exempt — they never had the chance to fire.
package stale

type Knob struct{}

func (Knob) Apply(v string) error { return nil }

func demo() {
	var k Knob

	//lint:ignore knoberr fixture: live — absorbs the discarded error below
	k.Apply("accepted")

	//lint:ignore knoberr fixture: stale — the call below handles its error
	if err := k.Apply("handled"); err != nil {
		panic(err)
	}

	//lint:ignore spanend fixture: exempt — spanend is not in this run
	k.Apply("other-analyzer")
}
