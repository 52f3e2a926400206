// Golden input for apierr: untyped error construction in HTTP handlers
// and unregistered ErrorCode literals.
package a

import (
	"errors"
	"fmt"
	"net/http"

	"repro/pkg/api"
)

func handler(w http.ResponseWriter, r *http.Request) {
	var err error
	err = fmt.Errorf("lookup failed: %d", 42) // want `fmt.Errorf in an HTTP handler`
	err = fmt.Errorf("wrap: %w", err)         // want `fmt.Errorf in an HTTP handler`
	err = errors.New("bare")                  // want `errors.New in an HTTP handler`
	err = api.Errorf(api.CodeInternal, "typed: %v", err)
	_ = err
	_ = w
	_ = r
}

var _ = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	//sicklevet:ignore apierr demonstrating the escape hatch
	_ = errors.New("suppressed")
	_ = fmt.Errorf("closure") // want `fmt.Errorf in an HTTP handler`
})

func notAHandler() error {
	return fmt.Errorf("library code: fine")
}

func codes() {
	var c api.ErrorCode = "bogus_code" // want `not a registered api.ErrorCode`
	c = api.ErrorCode("also_bogus")    // want `not a registered api.ErrorCode`
	c = api.CodeNotFound
	c = ""                 // unset sentinel: fine
	if c == "weird_code" { // want `not a registered api.ErrorCode`
		return
	}
	_ = c
}
