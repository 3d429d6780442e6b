package affine

// Render renders p from scratch, bypassing its memoized text.
func Render(p *Program) string { return string(p.appendText(nil)) }
