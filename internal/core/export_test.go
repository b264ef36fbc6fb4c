package core

// RandomEnv exposes the seeded random scheduling environment of the
// differential tests to the package's external tests.
var RandomEnv = randomEnv
