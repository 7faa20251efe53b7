package cpu

// Exported for the external test package (engine_wall_test.go), which needs
// packages that import cpu.
var (
	RefRun           = refRun
	RefRunFunctional = refRunFunctional
)
