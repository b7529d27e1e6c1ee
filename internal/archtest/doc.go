// Package archtest holds TestTreeShape, which keeps the root module's "one
// of each" decisions made: each rule names a kind of declaration that may
// appear in one place only, and the test fails on a copy anywhere else.
package archtest
