//! Derive macros for the vendored `serde` shim.
//!
//! The real `serde_derive` (and its `syn`/`quote` stack) is unreachable in
//! this offline build, so these macros parse the item's token stream by hand.
//! That is tractable because the shim only has to cover the shapes this
//! workspace actually derives on: non-generic structs with named fields and
//! non-generic enums with unit, tuple, or struct variants. Anything else is
//! rejected with a compile-time panic naming the unsupported construct.
//!
//! Generated code targets the shim's `serde::Value` tree and uses
//! serde's externally-tagged enum representation: unit variants serialize as
//! a bare string, payload variants as a single-key object.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

/// Derive the shim's `serde::Serialize` for a named-field struct or an enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let mut out = String::new();
    match &item.shape {
        Shape::Struct(fields) => {
            let mut entries = String::new();
            for f in fields {
                let _ = write!(
                    entries,
                    "(::std::string::String::from(\"{f}\"), \
                     ::serde::Serialize::to_value(&self.{f})),"
                );
            }
            let _ = write!(
                out,
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Obj(::std::vec::Vec::from([{entries}]))\n\
                     }}\n\
                 }}",
                name = item.name,
            );
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                match &v.kind {
                    VariantKind::Unit => {
                        let _ = write!(
                            arms,
                            "Self::{v} => ::serde::Value::Str(\
                                 ::std::string::String::from(\"{v}\")),",
                            v = v.name
                        );
                    }
                    VariantKind::Tuple(arity) => {
                        let binders: Vec<String> =
                            (0..*arity).map(|i| format!("__f{i}")).collect();
                        let payload = if *arity == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let vals: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!(
                                "::serde::Value::Arr(::std::vec::Vec::from([{}]))",
                                vals.join(",")
                            )
                        };
                        let _ = write!(
                            arms,
                            "Self::{v}({binds}) => ::serde::Value::Obj(\
                                 ::std::vec::Vec::from([(\
                                     ::std::string::String::from(\"{v}\"), {payload})])),",
                            v = v.name,
                            binds = binders.join(","),
                        );
                    }
                    VariantKind::Struct(fields) => {
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        let _ = write!(
                            arms,
                            "Self::{v} {{ {binds} }} => ::serde::Value::Obj(\
                                 ::std::vec::Vec::from([(\
                                     ::std::string::String::from(\"{v}\"), \
                                     ::serde::Value::Obj(::std::vec::Vec::from([{entries}])))])),",
                            v = v.name,
                            binds = fields.join(","),
                            entries = entries.join(","),
                        );
                    }
                }
            }
            let _ = write!(
                out,
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}",
                name = item.name,
            );
        }
    }
    out.parse().expect("serde_derive: generated Serialize impl must parse")
}

/// Derive the shim's `serde::Deserialize` for a named-field struct or an enum.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let mut out = String::new();
    match &item.shape {
        Shape::Struct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::field(__entries, \"{f}\")?"))
                .collect();
            let _ = write!(
                out,
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match __v {{\n\
                             ::serde::Value::Obj(__entries) => \
                                 ::std::result::Result::Ok(Self {{ {inits} }}),\n\
                             __other => ::std::result::Result::Err(\
                                 ::serde::DeError::expected(\"struct {name}\", __other)),\n\
                         }}\n\
                     }}\n\
                 }}",
                inits = inits.join(","),
            );
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                match &v.kind {
                    VariantKind::Unit => {
                        let _ = write!(
                            unit_arms,
                            "\"{v}\" => ::std::result::Result::Ok(Self::{v}),",
                            v = v.name
                        );
                    }
                    VariantKind::Tuple(1) => {
                        let _ = write!(
                            tagged_arms,
                            "\"{v}\" => ::std::result::Result::Ok(\
                                 Self::{v}(::serde::Deserialize::from_value(__payload)?)),",
                            v = v.name
                        );
                    }
                    VariantKind::Tuple(arity) => {
                        let elems: Vec<String> = (0..*arity)
                            .map(|i| {
                                format!("::serde::Deserialize::from_value(&__items[{i}])?")
                            })
                            .collect();
                        let _ = write!(
                            tagged_arms,
                            "\"{v}\" => match __payload {{\n\
                                 ::serde::Value::Arr(__items) if __items.len() == {arity} => \
                                     ::std::result::Result::Ok(Self::{v}({elems})),\n\
                                 __other => ::std::result::Result::Err(\
                                     ::serde::DeError::expected(\
                                         \"a {arity}-element array for {name}::{v}\", __other)),\n\
                             }},",
                            v = v.name,
                            elems = elems.join(","),
                        );
                    }
                    VariantKind::Struct(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{f}: ::serde::field(__fields, \"{f}\")?"))
                            .collect();
                        let _ = write!(
                            tagged_arms,
                            "\"{v}\" => match __payload {{\n\
                                 ::serde::Value::Obj(__fields) => \
                                     ::std::result::Result::Ok(Self::{v} {{ {inits} }}),\n\
                                 __other => ::std::result::Result::Err(\
                                     ::serde::DeError::expected(\
                                         \"an object for {name}::{v}\", __other)),\n\
                             }},",
                            v = v.name,
                            inits = inits.join(","),
                        );
                    }
                }
            }
            let _ = write!(
                out,
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match __v {{\n\
                             ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {unit_arms}\n\
                                 __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                     ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Obj(__entries) if __entries.len() == 1 => {{\n\
                                 let (__tag, __payload) = &__entries[0];\n\
                                 match __tag.as_str() {{\n\
                                     {tagged_arms}\n\
                                     __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                         ::std::format!(\
                                             \"unknown variant `{{__other}}` of {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             __other => ::std::result::Result::Err(\
                                 ::serde::DeError::expected(\"enum {name}\", __other)),\n\
                         }}\n\
                     }}\n\
                 }}",
            );
        }
    }
    out.parse().expect("serde_derive: generated Deserialize impl must parse")
}

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    /// Named fields, in declaration order.
    Struct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found `{other}`"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected item name, found `{other}`"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive: generic type `{name}` is not supported by the shim");
    }
    let body = match &tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            g.stream().into_iter().collect::<Vec<_>>()
        }
        _ => panic!(
            "serde_derive: `{name}` must have a braced body \
             (tuple/unit structs are not supported by the shim)"
        ),
    };
    let shape = match kind.as_str() {
        "struct" => Shape::Struct(parse_named_fields(&body)),
        "enum" => Shape::Enum(parse_variants(&body)),
        other => panic!("serde_derive: cannot derive for `{other} {name}`"),
    };
    Item { name, shape }
}

/// Skip any number of `#[…]` (including doc comments, which arrive as
/// `#[doc = "…"]`).
fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1; // '#'
        match tokens.get(*i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => *i += 1,
            _ => panic!("serde_derive: malformed attribute"),
        }
    }
}

/// Skip `pub`, `pub(crate)`, `pub(in …)`, …
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(
            tokens.get(*i),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            *i += 1;
        }
    }
}

/// Advance past one type (or expression), stopping at a `,` that sits outside
/// every `<…>` pair. Groups are single tokens, so only angle brackets need
/// explicit depth tracking.
fn skip_to_top_level_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(tokens: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_visibility(tokens, &mut i);
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected field name, found `{other}`"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field `{name}`, found `{other}`"),
        }
        skip_to_top_level_comma(tokens, &mut i);
        i += 1; // the comma itself (or one past the end)
        fields.push(name);
    }
    fields
}

fn parse_variants(tokens: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected variant name, found `{other}`"),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_elements(&g.stream().into_iter().collect::<Vec<_>>()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(&g.stream().into_iter().collect::<Vec<_>>()))
            }
            _ => VariantKind::Unit,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            panic!("serde_derive: explicit discriminants are not supported by the shim");
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

/// Number of types in a tuple-variant payload: top-level commas + 1. A
/// trailing comma contributes no extra slot because the scan stops at the end
/// of the token list.
fn count_tuple_elements(tokens: &[TokenTree]) -> usize {
    if tokens.is_empty() {
        panic!("serde_derive: empty tuple variants are not supported by the shim");
    }
    let mut slots = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_to_top_level_comma(tokens, &mut i);
        slots += 1;
        i += 1;
    }
    slots
}
