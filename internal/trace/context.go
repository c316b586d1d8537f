package trace

import "context"

// ctxKey carries the active trace and current span through a context. One
// key holding both keeps StartSpan to a single context lookup on the
// disabled path.
type ctxKey struct{}

type ctxVal struct {
	tr  *Trace
	cur *Span // parent for the next StartSpan; nil means root-level
}

// ContextWith returns ctx carrying tr with cur as the current span.
// A nil trace returns ctx unchanged.
func ContextWith(ctx context.Context, tr *Trace, cur *Span) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &ctxVal{tr: tr, cur: cur})
}

// StartSpan opens a named span under the context's current span and returns
// a derived context in which the new span is current. When ctx carries no
// trace — tracing disabled, or an untraced entry point — it returns ctx
// unchanged and a nil span: the disabled path is one context lookup, zero
// allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	v, ok := ctx.Value(ctxKey{}).(*ctxVal)
	if !ok {
		return ctx, nil
	}
	parentID := ""
	if v.cur != nil {
		parentID = v.cur.spanID
	}
	s := v.tr.newSpan(name, parentID)
	if s == nil { // span cap hit; keep tracing the rest under the old parent
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, &ctxVal{tr: v.tr, cur: s}), s
}
