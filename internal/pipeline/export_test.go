package pipeline

// StepEveryCycle turns off idle-cycle fast-forward on cfg, so the
// differential tests outside the package can compare against per-cycle
// stepping.
func StepEveryCycle(cfg *Config) { cfg.stepEveryCycle = true }
