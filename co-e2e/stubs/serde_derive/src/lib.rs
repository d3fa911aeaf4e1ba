//! No-op `Serialize` / `Deserialize` derives.
//!
//! The product derives the serde traits on its value types but nothing the
//! benchmark links serializes through them, so the derives expand to
//! nothing; `#[serde(...)]` helper attributes are accepted and ignored.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
