// Fixture: malformed suppression directives are findings themselves.
package bad

//lint:ignore detflow
func missingReason() {}

//lint:ignore nosuchanalyzer because reasons
func unknownAnalyzer() {}

var (
	_ = missingReason
	_ = unknownAnalyzer
)
